// Command perfbench is the repository benchmark. It drives one fixed
// workload through the public API of the OFC stack for a host-time
// budget, repeating the workload on fresh deployments at one seed, and
// prints every metric by name with its unit. The last line of its
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload warm_hit --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
//
// --trace 0 reports the end-to-end metrics from untraced repetitions;
// --trace 1 reports the per-layer metrics, alternating traced
// repetitions (span counts and self times) with untraced ones that time
// the platform hooks and probe each layer's entry point. Counts must
// repeat bit for bit across every repetition of a sub-seed, traced or
// not; virtual-time values that do not are counted and listed (see
// README.md, known findings). Host-time values are medians over
// repetitions. Any failed correctness or determinism check makes the
// exit status 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec is the embedded metric ledger.
var spec = mustLoadSpec()

func mustLoadSpec() *Spec {
	s, err := loadSpec()
	if err != nil {
		panic(err)
	}
	return s
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" for every workload in both trace modes")
	seed := fs.Int64("seed", spec.DefaultSeed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to spend repeating the workload")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// One process, one deployment at a time, on one processor: the
	// simulator releases one event at a time, so a second processor
	// adds little throughput, and it widens the host-scheduling
	// reorderings of README.md's first known finding.
	runtime.GOMAXPROCS(1)

	var names []string
	var modes []bool
	switch {
	case *name == "all":
		// Untraced runs first: peak_rss_mb reads the process's
		// high-water mark, which a traced run's span buffer would raise
		// beyond what the reset below can hand back.
		for _, traced := range []bool{false, true} {
			for _, w := range spec.Workloads {
				names = append(names, w.Name)
				modes = append(modes, traced)
			}
		}
	case shapes[*name].mk != nil:
		names, modes = []string{*name}, []bool{*traced == 1}
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	final := result{Correct: true, Metrics: map[string]value{}}
	for i, n := range names {
		if i > 0 {
			if err := resetPeakRSS(); err != nil {
				fmt.Fprintln(stderr, "perfbench: peak_rss_mb includes earlier workloads:", err)
			}
		}
		res := measure(n, *seed, budget, modes[i])
		res.report(stdout)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range spec.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line; the unexported fields feed the
// human-readable report printed above it.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload string
	seed     int64
	traced   bool
	reps     []*rep
	ref      map[string]float64
	errs     []string
	// nondet lists the virtual-time values that differed between
	// repetitions of one sub-seed; diverged counts the distinct names
	// among them, compared the values checked against an earlier
	// repetition of the same sub-seed. A count that differs is an error.
	nondet   []string
	diverged int
	compared int
}

// measure runs the workload's sub-seeds in turn on fresh deployments
// until the budget is spent, at least once each (twice in trace mode:
// once traced, once probed) and once more for the first, so every run
// repeats a sub-seed and checks determinism, then reduces the
// repetitions.
func measure(name string, seed int64, budget time.Duration, traced bool) *result {
	def := shapes[name]
	seeds := subSeeds(seed, def.subSeeds)
	k := len(seeds)
	blocks := 1
	if traced {
		blocks = 2
	}
	res := &result{workload: name, seed: seed, traced: traced, Metrics: map[string]value{}}
	start := time.Now()
	for i := 0; i <= blocks*k || time.Since(start) < budget; i++ {
		mode := modePlain
		if traced {
			// Alternate blocks so both kinds see every sub-seed and the
			// same machine conditions.
			mode = [...]repMode{modeTraced, modeProbed}[(i/k)%2]
		}
		r := runRep(def.mk, seeds[i%k], mode)
		r.sub = i % k
		res.reps = append(res.reps, r)
	}
	res.reduce()
	return res
}

// subSeeds derives a workload's independent sub-seeds from the run
// seed. Pooling the requests of several independent deployments makes
// the reported virtual metrics a property of the workload rather than
// of one draw of inputs.
func subSeeds(seed int64, k int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, k)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// pool adds up the first repetition of each sub-seed in mode.
func (res *result) pool(mode repMode) *tally {
	var t tally
	seen := map[int]bool{}
	for _, r := range res.reps {
		if r.mode == mode && !seen[r.sub] {
			seen[r.sub] = true
			t.add(&r.t)
		}
	}
	return &t
}

// reduce checks the repetitions, pools their deterministic values and
// reduces their host values (medians, and run-wide sums for throughput
// and allocation).
func (res *result) reduce() {
	first := map[int]map[string]float64{}
	diverged := map[string]bool{}
	for i, r := range res.reps {
		for _, e := range r.errs {
			res.errs = append(res.errs, fmt.Sprintf("rep %d (%s, sub-seed %d): %s", i, r.mode, r.sub, e))
		}
		res.Attempted += len(r.t.lats)
		res.Failed += r.t.failed
		// Determinism: every count must equal that of the first
		// repetition of the same sub-seed, traced or not. Virtual-time
		// values are compared too, but a difference is only reported:
		// host scheduling orders same-instant sim processes (README.md,
		// known findings), which moves latencies by nanoseconds.
		v := r.t.values()
		ref, ok := first[r.sub]
		if !ok {
			first[r.sub] = v
			continue
		}
		for _, k := range sortedKeys(v) {
			want, ok := ref[k]
			if !ok {
				ref[k] = v[k]
				continue
			}
			res.compared++
			if math.Float64bits(v[k]) == math.Float64bits(want) {
				continue
			}
			msg := fmt.Sprintf("rep %d (%s, sub-seed %d): %s = %v, its first repetition gave %v", i, r.mode, r.sub, k, v[k], want)
			if !spec.virtualTime(k) {
				res.errs = append(res.errs, "determinism: "+msg)
				continue
			}
			res.nondet = append(res.nondet, msg)
			diverged[k] = true
		}
	}
	res.diverged = len(diverged)

	primary := modePlain
	if res.traced {
		primary = modeTraced
	}
	res.ref = res.pool(primary).values()
	if res.traced {
		for k, v := range res.pool(modeProbed).values() {
			if strings.HasPrefix(k, probePrefix) {
				res.ref[k] = v
			}
		}
	}
	n := int(res.ref["requests"])
	if beyond := samplesBeyond(n, 0.99); beyond < minSamplesBeyond {
		res.errs = append(res.errs, fmt.Sprintf("%d requests leave %d samples beyond p99, need %d", n, beyond, minSamplesBeyond))
	}

	raw := map[string][]float64{}
	for _, r := range res.reps {
		for k, v := range r.hostRaw {
			raw[k] = append(raw[k], float64(v))
		}
	}
	med := map[string]float64{}
	for _, k := range sortedKeys(raw) {
		med[k] = medianF(raw[k])
	}

	want := spec.EndToEnd
	got := map[string]float64{}
	if res.traced {
		want = spec.PerLayer
		for _, m := range spec.PerLayer {
			if v, ok := res.ref[m.Name]; ok && m.Deterministic() {
				got[m.Name] = v
			}
		}
		for k, v := range res.ref {
			if name, ok := strings.CutPrefix(k, probePrefix); ok {
				got[name] = v
			}
		}
		for k, v := range med {
			if name, ok := strings.CutPrefix(k, probePrefix); ok {
				got[name] = v / 1000
			}
		}
		got["sim.host_ns_per_event"] = med["ps_per_event"] / 1000
		got["predictor.advise_host_ns"] = med["advise_ps_per_call"] / 1000
		got["predictor.observe_host_us"] = med["observe_ps_per_call"] / 1e6
		got["predictor.pretrain_s"] = med["pretrain_ns"] / 1e9
		got["trace.overhead_pct"] = 100 * (1 - med["ns_per_request"]/med["traced_ns_per_request"])
		got["sim.nondeterministic_values"] = float64(res.diverged)
	} else {
		for _, k := range []string{"latency_p50_ms", "latency_p99_ms", "latency_mean_ms"} {
			got[k] = res.ref[k]
		}
		rps, alloc := res.rates()
		got["requests_per_host_s"] = rps
		got["setup_s"] = med["setup_ns"] / 1e9
		got["alloc_bytes_per_request"] = alloc
		got["peak_rss_mb"] = peakRSSMiB()
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			res.errs = append(res.errs, fmt.Sprintf("metric %s was not measured", m.Name))
			continue
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.errs = append(res.errs, fmt.Sprintf("metric %s is %v", m.Name, v))
			v = 0
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	res.Correct = len(res.errs) == 0
}

// rates returns requests per host second and heap bytes per request
// over all the run's repetitions: sums, so every repetition weighs by
// its work, as in the pooled virtual metrics, and a slow stretch of a
// shared machine is averaged over the whole run.
func (res *result) rates() (rps, alloc float64) {
	var reqs, ns, bytes float64
	for _, r := range res.reps {
		reqs += float64(len(r.t.lats))
		ns += float64(r.hostRaw["measured_ns"])
		bytes += float64(r.hostRaw["alloc_bytes"])
	}
	return reqs / (ns / 1e9), bytes / reqs
}

// report prints the run's header, every metric with its unit, and the
// checks, as the lines above the JSON result.
func (res *result) report(w io.Writer) {
	kinds := map[repMode]int{}
	for _, r := range res.reps {
		kinds[r.mode]++
	}
	var mix []string
	for _, m := range []repMode{modePlain, modeProbed, modeTraced} {
		if kinds[m] > 0 {
			mix = append(mix, fmt.Sprintf("%s %d", m, kinds[m]))
		}
	}
	trace := 0
	if res.traced {
		trace = 1
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%d gomaxprocs=%d sub-seeds=%d reps=%d (%s)\n",
		res.workload, res.seed, trace, runtime.GOMAXPROCS(0), shapes[res.workload].subSeeds, len(res.reps), strings.Join(mix, ", "))
	fmt.Fprintf(w, "# requests=%.0f failed=%.0f fingerprint=%013x generator_late_ms=%g process_peak_rss_mb=%.1f\n",
		res.ref["requests"], res.ref["failed"], uint64(res.ref["fingerprint"]), res.ref["generator_late_ms"], peakRSSMiB())
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-40s %s %s\n", k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if len(res.errs) == 0 {
		fmt.Fprintln(w, "# checks: ok")
	}
	for _, e := range res.errs {
		fmt.Fprintln(w, "# CHECK FAILED:", e)
	}
	fmt.Fprintf(w, "# determinism: %d values of repeated sub-seeds compared with their first repetition; %d virtual-time values differ (%d distinct names)\n",
		res.compared, len(res.nondet), res.diverged)
	for _, e := range res.nondet {
		fmt.Fprintln(w, "#   ", e)
	}
}

// resetPeakRSS returns freed heap to the OS and restarts the process's
// resident-set high-water mark from its current RSS, so peak_rss_mb
// describes the next workload only.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
