package mltree

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The reference tree builder: the straightforward C4.5 recursion that
// copies each node's instances and stable-sorts the copy for every
// numeric attribute at every node. The presorted builder must grow the
// same trees, node for node and bit for bit.

type refBuilder struct {
	d           *Dataset
	minLeaf     float64
	maxDepth    int
	attrSampler func() []int
}

func refSortByAttr(insts []Instance, attr int) {
	slices.SortStableFunc(insts, func(x, y Instance) int {
		a, b := x.Vals[attr], y.Vals[attr]
		switch {
		case IsMissing(a) && IsMissing(b):
			return 0
		case IsMissing(a):
			return 1
		case IsMissing(b):
			return -1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
}

func refEvaluateSplit(d *Dataset, insts []Instance, attr int, baseEntropy float64, minLeaf float64) splitCandidate {
	cand := splitCandidate{attr: attr}
	numClasses := len(d.Classes)
	if d.Attrs[attr].Kind == Nominal {
		k := d.Attrs[attr].NumValues()
		counts := make([][]float64, k)
		for i := range counts {
			counts[i] = make([]float64, numClasses)
		}
		var total float64
		for i := range insts {
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

	sorted := make([]Instance, len(insts))
	copy(sorted, insts)
	refSortByAttr(sorted, attr)
	n := len(sorted)
	for n > 0 && IsMissing(sorted[n-1].Vals[attr]) {
		n--
	}
	if n < 2 {
		return cand
	}
	sorted = sorted[:n]
	var total float64
	right := make([]float64, numClasses)
	for i := range sorted {
		right[sorted[i].Class] += sorted[i].Weight
		total += sorted[i].Weight
	}
	left := make([]float64, numClasses)
	var leftW float64
	bestGain, bestThr := -1.0, 0.0
	candidates := 0
	for i := 0; i < len(sorted)-1; i++ {
		w := sorted[i].Weight
		left[sorted[i].Class] += w
		right[sorted[i].Class] -= w
		leftW += w
		if sorted[i].Vals[attr] == sorted[i+1].Vals[attr] {
			continue
		}
		rightW := total - leftW
		if leftW < minLeaf || rightW < minLeaf {
			continue
		}
		candidates++
		cond := leftW/total*entropy(left) + rightW/total*entropy(right)
		gain := baseEntropy - cond
		if gain > bestGain {
			bestGain = gain
			bestThr = (sorted[i].Vals[attr] + sorted[i+1].Vals[attr]) / 2
		}
	}
	if candidates > 0 {
		bestGain -= math.Log2(float64(candidates)) / total
	}
	if bestGain <= 1e-10 {
		return cand
	}
	var lw float64
	for i := range sorted {
		if sorted[i].Vals[attr] <= bestThr {
			lw += sorted[i].Weight
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

func (b *refBuilder) build(insts []Instance, depth int) *node {
	counts := make([]float64, len(b.d.Classes))
	for i := range insts {
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

	var candidates []int
	if b.attrSampler != nil {
		candidates = b.attrSampler()
	} else {
		candidates = make([]int, len(b.d.Attrs))
		for i := range candidates {
			candidates[i] = i
		}
	}

	var best splitCandidate
	var gains []splitCandidate
	for _, a := range candidates {
		c := refEvaluateSplit(b.d, insts, a, baseEntropy, b.minLeaf)
		if c.valid {
			gains = append(gains, c)
		}
	}
	if len(gains) == 0 {
		return nd
	}
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

	nd.attr = best.attr
	nd.threshold = best.threshold
	if b.d.Attrs[best.attr].Kind == Numeric {
		var left, right []Instance
		for i := range insts {
			v := insts[i].Vals[best.attr]
			if IsMissing(v) {
				continue
			}
			if v <= best.threshold {
				left = append(left, insts[i])
			} else {
				right = append(right, insts[i])
			}
		}
		if len(left) == 0 || len(right) == 0 {
			nd.attr = -1
			return nd
		}
		nd.children = []*node{b.build(left, depth+1), b.build(right, depth+1)}
	} else {
		k := b.d.Attrs[best.attr].NumValues()
		parts := make([][]Instance, k)
		for i := range insts {
			v := insts[i].Vals[best.attr]
			if IsMissing(v) {
				continue
			}
			parts[int(v)] = append(parts[int(v)], insts[i])
		}
		nd.children = make([]*node, k)
		for i, p := range parts {
			if len(p) > 0 {
				nd.children[i] = b.build(p, depth+1)
			}
		}
	}
	return nd
}

// refLearner fits with the reference builder under the same learner
// settings, so CrossValidate can drive it like any Learner.
type refLearner struct{ l Learner }

func (r refLearner) Name() string { return "ref" + r.l.Name() }

func (r refLearner) Fit(d *Dataset) Classifier {
	switch l := r.l.(type) {
	case *J48:
		minLeaf := l.MinLeaf
		if minLeaf <= 0 {
			minLeaf = 2
		}
		b := &refBuilder{d: d, minLeaf: minLeaf, maxDepth: l.MaxDepth}
		root := b.build(d.Instances, 0)
		if l.Confidence > 0 {
			prune(root, l.Confidence, d.Attrs)
		}
		return &Tree{root: root, attrs: d.Attrs, n: d.Len()}
	case *RandomTree:
		k := l.K
		if k <= 0 {
			k = int(math.Log2(float64(len(d.Attrs)))) + 1
		}
		if k > len(d.Attrs) {
			k = len(d.Attrs)
		}
		minLeaf := l.MinLeaf
		if minLeaf <= 0 {
			minLeaf = 1
		}
		rng := rand.New(rand.NewSource(l.Seed))
		b := &refBuilder{d: d, minLeaf: minLeaf}
		b.attrSampler = func() []int { return rng.Perm(len(d.Attrs))[:k] }
		return &Tree{root: b.build(d.Instances, 0), attrs: d.Attrs, n: d.Len()}
	case *RandomForest:
		n := l.Trees
		if n <= 0 {
			n = 30
		}
		rng := rand.New(rand.NewSource(l.Seed))
		f := &Forest{classes: len(d.Classes)}
		for i := 0; i < n; i++ {
			bag := d.Bootstrap(rng)
			rt := &RandomTree{K: l.K, MinLeaf: l.MinLeaf, Seed: rng.Int63()}
			f.members = append(f.members, refLearner{rt}.Fit(bag).(*Tree))
		}
		return f
	}
	panic("refLearner: unsupported learner " + r.l.Name())
}

// oracleDataset draws a mixed dataset built to stress the split
// bookkeeping: numeric attributes with repeated values and ties across
// classes, nominal attributes (one with an empty category), ~7% missing
// values, and weights 1 and 2 plus ~10% fractional ones, whose sums
// depend on summation order, so a builder that visits tied values in
// another order than the reference shows up as a threshold or count
// that differs in the last bit.
func oracleDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset([]Attribute{
		{Name: "coarse", Kind: Numeric},
		{Name: "fine", Kind: Numeric},
		{Name: "color", Kind: Nominal, Values: []string{"r", "g", "b"}},
		{Name: "mem", Kind: Numeric},
		{Name: "shape", Kind: Nominal, Values: []string{"o", "x", "unused"}},
	}, []string{"a", "b", "c", "d"})
	for i := 0; i < n; i++ {
		coarse := float64(rng.Intn(6))
		fine := math.Round(rng.Float64()*40) / 4
		color := float64(rng.Intn(3))
		mem := float64(rng.Intn(3)) * 1024
		shape := float64(rng.Intn(2))
		class := (int(coarse)/2 + int(color)) % 4
		if fine > 6 {
			class = (class + 1) % 4
		}
		if rng.Float64() < 0.15 {
			class = rng.Intn(4)
		}
		vals := []float64{coarse, fine, color, mem, shape}
		for j := range vals {
			if rng.Float64() < 0.07 {
				vals[j] = Missing
			}
		}
		w := float64(1 + rng.Intn(2))
		if rng.Float64() < 0.1 {
			w = 0.1 * float64(1+rng.Intn(19))
		}
		d.AddWeighted(vals, class, w)
	}
	return d
}

// TestPresortedBuilderMatchesReference is the differential oracle for
// the presorted builder: over seeded random datasets, every learner
// grows exactly the reference's trees and cross-validation pools
// exactly the reference's confusion matrices.
func TestPresortedBuilderMatchesReference(t *testing.T) {
	learners := []Learner{
		NewJ48(),
		&J48{MinLeaf: 1, Confidence: 0.25},
		&J48{MinLeaf: 2, MaxDepth: 3},
		NewRandomTree(5),
		&RandomForest{Trees: 4, MinLeaf: 1, Seed: 9},
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(300)
		d := oracleDataset(n, seed)
		for _, l := range learners {
			got, want := l.Fit(d), refLearner{l}.Fit(d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d n=%d %s: presorted tree differs from reference (%v vs %v)",
					seed, n, l.Name(), got, want)
			}
		}
		if seed%4 == 0 {
			for _, l := range learners[:2] {
				got := CrossValidate(l, d, 5, seed)
				want := CrossValidate(refLearner{l}, d, 5, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d n=%d %s: cross-validation differs from reference:\n%v\n%v",
						seed, n, l.Name(), got.Counts, want.Counts)
				}
			}
		}
	}
	// The predictor's shape: numeric features, many ordered classes.
	for seed := int64(1); seed <= 3; seed++ {
		d := predictorDataset(400, 12, seed)
		if got, want := NewJ48().Fit(d), (refLearner{NewJ48()}).Fit(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("predictor-shaped seed %d: presorted tree differs from reference", seed)
		}
	}
}
