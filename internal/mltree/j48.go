package mltree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// node is a decision-tree node shared by J48 and RandomTree.
type node struct {
	// split
	attr      int     // attribute index, -1 for leaf
	threshold float64 // numeric split: <= threshold goes left
	children  []*node // numeric: [left,right]; nominal: one per category

	// leaf / fallback data
	counts   []float64 // weighted class histogram at this node
	majority int       // majority class (used for leaves and missing values)
}

func (n *node) isLeaf() bool { return n.attr < 0 }

// classifyNode walks the tree for vals; missing or out-of-range values
// stop at the current node's majority.
func (n *node) distribution(vals []float64, attrs []Attribute) []float64 {
	cur := n
	for !cur.isLeaf() {
		v := vals[cur.attr]
		if IsMissing(v) {
			break
		}
		if attrs[cur.attr].Kind == Numeric {
			if v <= cur.threshold {
				cur = cur.children[0]
			} else {
				cur = cur.children[1]
			}
		} else {
			idx := int(v)
			if idx < 0 || idx >= len(cur.children) || cur.children[idx] == nil {
				break
			}
			cur = cur.children[idx]
		}
	}
	total := 0.0
	for _, c := range cur.counts {
		total += c
	}
	dist := make([]float64, len(cur.counts))
	if total > 0 {
		for i, c := range cur.counts {
			dist[i] = c / total
		}
	} else {
		dist[cur.majority] = 1
	}
	return dist
}

func (n *node) classify(vals []float64, attrs []Attribute) int {
	cur := n
	for !cur.isLeaf() {
		v := vals[cur.attr]
		if IsMissing(v) {
			break
		}
		if attrs[cur.attr].Kind == Numeric {
			if v <= cur.threshold {
				cur = cur.children[0]
			} else {
				cur = cur.children[1]
			}
		} else {
			idx := int(v)
			if idx < 0 || idx >= len(cur.children) || cur.children[idx] == nil {
				break
			}
			cur = cur.children[idx]
		}
	}
	return cur.majority
}

func (n *node) size() int {
	if n.isLeaf() {
		return 1
	}
	s := 1
	for _, c := range n.children {
		if c != nil {
			s += c.size()
		}
	}
	return s
}

func (n *node) depth() int {
	if n.isLeaf() {
		return 1
	}
	d := 0
	for _, c := range n.children {
		if c != nil && c.depth() > d {
			d = c.depth()
		}
	}
	return d + 1
}

// splitCandidate is the outcome of evaluating one attribute at a node.
type splitCandidate struct {
	attr      int
	threshold float64
	gain      float64
	gainRatio float64
	valid     bool
}

// evaluateSplit computes the best split on one attribute over the
// node's segment [lo,hi), C4.5 style: information gain ratio, binary
// threshold splits for numeric attributes, multiway splits for nominal
// ones. Missing values are excluded from the gain computation.
func (b *treeBuilder) evaluateSplit(lo, hi, attr int, baseEntropy float64) splitCandidate {
	cand := splitCandidate{attr: attr}
	insts := b.d.Instances
	numClasses := len(b.d.Classes)
	if b.d.Attrs[attr].Kind == Nominal {
		k := b.d.Attrs[attr].NumValues()
		counts := make([][]float64, k)
		for i := range counts {
			counts[i] = make([]float64, numClasses)
		}
		var total float64
		for _, i := range b.order[lo:hi] {
			v := insts[i].Vals[attr]
			if IsMissing(v) {
				continue
			}
			counts[int(v)][insts[i].Class] += insts[i].Weight
			total += insts[i].Weight
		}
		if total == 0 {
			return cand
		}
		nonEmpty := 0
		var cond, splitInfo float64
		for _, c := range counts {
			var w float64
			for _, x := range c {
				w += x
			}
			if w > 0 {
				nonEmpty++
				p := w / total
				cond += p * entropy(c)
				splitInfo -= p * math.Log2(p)
			}
		}
		if nonEmpty < 2 || splitInfo <= 0 {
			return cand
		}
		cand.gain = baseEntropy - cond
		cand.gainRatio = cand.gain / splitInfo
		cand.valid = cand.gain > 1e-10
		return cand
	}

	// Numeric attribute: the segment is already in attribute order, so
	// scan thresholds between distinct consecutive values.
	sorted := b.sorted[attr][lo:hi]
	// Trim trailing missing values.
	n := len(sorted)
	for n > 0 && IsMissing(insts[sorted[n-1]].Vals[attr]) {
		n--
	}
	if n < 2 {
		return cand
	}
	sorted = sorted[:n]
	var total float64
	left, right := b.left, b.right
	clear(left)
	clear(right)
	for _, i := range sorted {
		right[insts[i].Class] += insts[i].Weight
		total += insts[i].Weight
	}
	var leftW float64
	bestGain, bestThr := -1.0, 0.0
	candidates := 0
	for j := 0; j < len(sorted)-1; j++ {
		cur, next := &insts[sorted[j]], &insts[sorted[j+1]]
		w := cur.Weight
		left[cur.Class] += w
		right[cur.Class] -= w
		leftW += w
		if cur.Vals[attr] == next.Vals[attr] {
			continue
		}
		rightW := total - leftW
		if leftW < b.minLeaf || rightW < b.minLeaf {
			continue
		}
		candidates++
		cond := leftW/total*entropy(left) + rightW/total*entropy(right)
		gain := baseEntropy - cond
		if gain > bestGain {
			bestGain = gain
			bestThr = (cur.Vals[attr] + next.Vals[attr]) / 2
		}
	}
	// C4.5's MDL correction for numeric attributes: charge the cost of
	// transmitting the chosen threshold against the gain.
	if candidates > 0 {
		bestGain -= math.Log2(float64(candidates)) / total
	}
	if bestGain <= 1e-10 {
		return cand
	}
	// Recompute split info for the chosen threshold.
	var lw float64
	for _, i := range sorted {
		if insts[i].Vals[attr] <= bestThr {
			lw += insts[i].Weight
		}
	}
	pl := lw / total
	splitInfo := 0.0
	if pl > 0 && pl < 1 {
		splitInfo = -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
	}
	if splitInfo <= 0 {
		return cand
	}
	cand.threshold = bestThr
	cand.gain = bestGain
	cand.gainRatio = bestGain / splitInfo
	cand.valid = true
	return cand
}

// J48 is a C4.5-style decision-tree learner: gain-ratio splits, a
// minimum leaf weight, and optional pessimistic error pruning with the
// standard confidence factor.
type J48 struct {
	// MinLeaf is the minimum total weight per leaf (C4.5 default 2).
	MinLeaf float64
	// Confidence is the pruning confidence factor (C4.5 default 0.25).
	// Zero disables pruning.
	Confidence float64
	// MaxDepth caps tree depth; zero means unlimited.
	MaxDepth int
}

// NewJ48 returns a learner with the C4.5 defaults.
func NewJ48() *J48 { return &J48{MinLeaf: 2, Confidence: 0.25} }

// Name implements Learner.
func (j *J48) Name() string { return "J48" }

// Tree is a trained decision tree.
type Tree struct {
	root  *node
	attrs []Attribute
	n     int // training instances
}

// Fit implements Learner.
func (j *J48) Fit(d *Dataset) Classifier {
	minLeaf := j.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	b := newTreeBuilder(d, minLeaf, j.MaxDepth)
	root := b.build(0, d.Len(), 0)
	if j.Confidence > 0 {
		prune(root, j.Confidence, d.Attrs)
	}
	return &Tree{root: root, attrs: d.Attrs, n: d.Len()}
}

// treeBuilder carries the recursion state for J48 and RandomTree.
//
// Instances are addressed by their position in d.Instances. order
// lists them in dataset order, and sorted[a] lists them by numeric
// attribute a (missing last, ties in dataset order), sorted once per
// fit. Every node owns the segment [lo,hi) of each list, and a split
// regroups the segment stably, so a child's lists are exactly what a
// fresh stable sort of its own instances would give: every sum runs in
// the same order as with a per-node sort, and the tree is the same.
type treeBuilder struct {
	d        *Dataset
	minLeaf  float64
	maxDepth int
	// attrSampler, when non-nil, returns the candidate attribute set
	// for a node (RandomTree's per-node random subspace).
	attrSampler func() []int

	order  []int32
	sorted [][]int32 // nil for nominal attributes
	// Scratch: the child group of each instance under the split being
	// applied (-1 when its value is missing), the regroup buffer and
	// write offsets, the numeric scan's class histograms, every
	// attribute index, and the per-node valid candidates.
	group       []int32
	tmp         []int32
	next        []int
	left, right []float64
	allAttrs    []int
	gains       []splitCandidate
}

// newTreeBuilder presorts d for one fit.
func newTreeBuilder(d *Dataset, minLeaf float64, maxDepth int) *treeBuilder {
	n := d.Len()
	numeric := 0
	for a := range d.Attrs {
		if d.Attrs[a].Kind == Numeric {
			numeric++
		}
	}
	lists := make([]int32, (numeric+3)*n)
	b := &treeBuilder{
		d: d, minLeaf: minLeaf, maxDepth: maxDepth,
		order:    lists[:n:n],
		sorted:   make([][]int32, len(d.Attrs)),
		group:    lists[n : 2*n : 2*n],
		tmp:      lists[2*n : 3*n : 3*n],
		left:     make([]float64, len(d.Classes)),
		right:    make([]float64, len(d.Classes)),
		allAttrs: make([]int, len(d.Attrs)),
	}
	for i := range b.order {
		b.order[i] = int32(i)
	}
	for a := range b.allAttrs {
		b.allAttrs[a] = a
	}
	lists = lists[3*n:]
	for a := range d.Attrs {
		if d.Attrs[a].Kind != Numeric {
			continue
		}
		s := lists[:n:n]
		lists = lists[n:]
		copy(s, b.order)
		slices.SortFunc(s, func(x, y int32) int {
			vx, vy := d.Instances[x].Vals[a], d.Instances[y].Vals[a]
			mx, my := IsMissing(vx), IsMissing(vy)
			switch {
			case mx && !my:
				return 1
			case my && !mx:
				return -1
			case !mx && vx < vy:
				return -1
			case !mx && vx > vy:
				return 1
			}
			return cmp.Compare(x, y)
		})
		b.sorted[a] = s
	}
	return b
}

// build grows the subtree over the segment [lo,hi).
func (b *treeBuilder) build(lo, hi, depth int) *node {
	insts := b.d.Instances
	counts := make([]float64, len(b.d.Classes))
	for _, i := range b.order[lo:hi] {
		counts[insts[i].Class] += insts[i].Weight
	}
	nd := &node{attr: -1, counts: counts, majority: majorityClass(counts)}
	var total float64
	classesPresent := 0
	for _, c := range counts {
		total += c
		if c > 0 {
			classesPresent++
		}
	}
	if classesPresent <= 1 || total < 2*b.minLeaf || (b.maxDepth > 0 && depth >= b.maxDepth) {
		return nd
	}
	baseEntropy := entropy(counts)

	candidates := b.allAttrs
	if b.attrSampler != nil {
		candidates = b.attrSampler()
	}

	var best splitCandidate
	gains := b.gains[:0]
	for _, a := range candidates {
		c := b.evaluateSplit(lo, hi, a, baseEntropy)
		if c.valid {
			gains = append(gains, c)
		}
	}
	b.gains = gains
	if len(gains) == 0 {
		return nd
	}
	// C4.5 heuristic: restrict to splits with at least average gain,
	// then pick the best gain ratio.
	var avg float64
	for _, g := range gains {
		avg += g.gain
	}
	avg /= float64(len(gains))
	bestRatio := -1.0
	for _, g := range gains {
		if g.gain >= avg-1e-12 && g.gainRatio > bestRatio {
			bestRatio = g.gainRatio
			best = g
		}
	}
	if !best.valid {
		return nd
	}

	// Group the segment: numeric splits send <= threshold left (0) and
	// the rest right (1), nominal ones go by category. Instances missing
	// the split attribute join no child; the parent majority covers them.
	numeric := b.d.Attrs[best.attr].Kind == Numeric
	k := 2
	if !numeric {
		k = b.d.Attrs[best.attr].NumValues()
	}
	sizes := make([]int, k)
	for _, i := range b.order[lo:hi] {
		v := insts[i].Vals[best.attr]
		g := -1
		switch {
		case IsMissing(v):
		case !numeric:
			g = int(v)
		case v <= best.threshold:
			g = 0
		default:
			g = 1
		}
		b.group[i] = int32(g)
		if g >= 0 {
			sizes[g]++
		}
	}
	nd.attr = best.attr
	nd.threshold = best.threshold
	if numeric && (sizes[0] == 0 || sizes[1] == 0) {
		nd.attr = -1
		return nd
	}
	b.regroup(b.order, lo, hi, sizes)
	for _, s := range b.sorted {
		if s != nil {
			b.regroup(s, lo, hi, sizes)
		}
	}
	nd.children = make([]*node, k)
	start := lo
	for g, size := range sizes {
		if size > 0 {
			nd.children[g] = b.build(start, start+size, depth+1)
		}
		start += size
	}
	return nd
}

// regroup stably reorders list[lo:hi] by b.group: group 0 first, then
// group 1, and so on. Instances in no group are dropped, leaving stale
// entries after the last group that no child reads.
func (b *treeBuilder) regroup(list []int32, lo, hi int, sizes []int) {
	seg := list[lo:hi]
	next := b.next[:0]
	pos := 0
	for _, size := range sizes {
		next = append(next, pos)
		pos += size
	}
	b.next = next
	tmp := b.tmp[:pos]
	for _, i := range seg {
		if g := b.group[i]; g >= 0 {
			tmp[next[g]] = i
			next[g]++
		}
	}
	copy(seg, tmp)
}

// errorEstimate is the C4.5 pessimistic upper bound on the error rate
// of a leaf covering n instances with e errors, at confidence cf,
// using the normal approximation to the binomial.
func errorEstimate(n, e, cf float64) float64 {
	if n == 0 {
		return 0
	}
	z := zValue(cf)
	f := e / n
	num := f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))
	den := 1 + z*z/n
	return num / den * n
}

// zValue approximates the standard normal quantile for the upper tail
// probability cf (C4.5 uses cf=0.25 → z≈0.6745).
func zValue(cf float64) float64 {
	// Beasley-Springer-Moro style rational approximation of the
	// inverse normal CDF at 1-cf.
	p := 1 - cf
	if p <= 0 || p >= 1 {
		return 0
	}
	// Peter Acklam's approximation.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	plow, phigh := 0.02425, 1-0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	}
}

// prune applies subtree replacement: if the pessimistic error of a node
// as a leaf does not exceed the summed pessimistic error of its
// children, collapse it.
func prune(n *node, cf float64, attrs []Attribute) float64 {
	var total, errs float64
	for c, w := range n.counts {
		total += w
		if c != n.majority {
			errs += w
		}
	}
	leafErr := errorEstimate(total, errs, cf)
	if n.isLeaf() {
		return leafErr
	}
	var subtreeErr float64
	for _, c := range n.children {
		if c != nil {
			subtreeErr += prune(c, cf, attrs)
		}
	}
	if leafErr <= subtreeErr+1e-9 {
		n.attr = -1
		n.children = nil
		return leafErr
	}
	return subtreeErr
}

// Classify implements Classifier.
func (t *Tree) Classify(vals []float64) int { return t.root.classify(vals, t.attrs) }

// Distribution implements Classifier.
func (t *Tree) Distribution(vals []float64) []float64 { return t.root.distribution(vals, t.attrs) }

// Size returns the number of nodes.
func (t *Tree) Size() int { return t.root.size() }

// Depth returns the tree depth.
func (t *Tree) Depth() int { return t.root.depth() }

// String renders a compact description.
func (t *Tree) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tree{nodes=%d depth=%d}", t.Size(), t.Depth())
	return sb.String()
}
