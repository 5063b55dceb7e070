// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, checks that the program's outputs are correct, and
// prints its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 a separate traced run reports per-layer metrics from
// spans the benchmark records around every call into a layer. Run it
// through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// The workloads, their metrics and the seeds are documented in
// perfbench/MANIFEST.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 3

// runDeadline bounds a whole run, so a hang fails the run instead of
// outliving the driver's limit.
const runDeadline = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one measured run of a workload produced.
type result struct {
	attempted, failed int
	// throughput is units of work completed per second of the window.
	throughput float64
	// unitMs are the latencies of the workload's unit of work.
	unitMs []float64
	// cost is what tracing overhead is measured on: wall time per session
	// for the campaign, per artifact pass for the paper, and the median
	// request latency for the open-loop service, in ms.
	cost float64
	// lines are human-readable details printed before the JSON line.
	lines []string
	// layers are the per-layer metrics of a traced run.
	layers map[string]metric
}

// bench is one set-up workload instance.
type bench interface {
	// run measures for at least window. tr is nil in the untraced run; in
	// the traced run the workload records a span around each layer call.
	// An error means the run or one of its output checks failed.
	run(ctx context.Context, window time.Duration, tr *tracer) (result, error)
	// close tears the instance down — clients before their servers — and
	// runs the checks that need a shut-down system, such as recovery.
	close() error
}

// workloads maps a workload name to its set-up function, which builds
// every generated input and boots every server under dir.
var workloads = map[string]func(ctx context.Context, seed int64, dir string) (bench, error){
	"campaign":       setupCampaign,
	"paper":          setupPaper,
	"notary-service": setupService,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: campaign, paper or notary-service")
	seed := fs.Int64("seed", defaultSeed, "seed all inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	newBench, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {campaign,paper,notary-service}, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	// An interrupt cancels the run like the deadline does, so the work
	// directory is still removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	window := time.Duration(*seconds) * time.Second
	var out output
	if *trace == 0 {
		out, err = measure(ctx, newBench, *seed, work, window)
	} else {
		out, err = traced(ctx, newBench, *name, *seed, work, window)
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
	}
	out.Correct = err == nil
	for k, m := range out.Metrics {
		// A failed run can leave a quantile of no samples; JSON has no NaN.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.Metrics[k] = metric{0, m.Unit}
		}
	}
	body, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(body))
	if err != nil {
		return 1
	}
	return 0
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
}

// setupTimed builds the workload setupRepeats times, closing every build
// but the last, and returns the last with the median build time.
func setupTimed(ctx context.Context, newBench func(context.Context, int64, string) (bench, error),
	seed int64, work string) (bench, float64, error) {
	var times []float64
	var b bench
	for k := 0; k < setupRepeats; k++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		// Collect the previous build's garbage outside the timing, so each
		// build starts from the same heap and builds do not stack up in
		// the peak resident set.
		runtime.GC()
		start := time.Now()
		var err error
		b, err = newBench(ctx, seed, filepath.Join(work, "setup-"+strconv.Itoa(k)))
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, newDist(times).median(), nil
}

// measure is the untraced run: the end-to-end metrics.
func measure(ctx context.Context, newBench func(context.Context, int64, string) (bench, error),
	seed int64, work string, window time.Duration) (output, error) {
	b, setupS, err := setupTimed(ctx, newBench, seed, work)
	if err != nil {
		return output{}, err
	}
	runtime.GC()
	res, err := b.run(ctx, window, nil)
	err = errors.Join(err, b.close())
	unit := newDist(res.unitMs)
	values := map[string]float64{
		"setup_s":          setupS,
		"peak_rss_mb":      peakRSSMB(),
		"throughput_per_s": res.throughput,
		"latency_ms":       unit.median(),
	}
	out := output{Attempted: res.attempted, Failed: res.failed, lines: res.lines, Metrics: map[string]metric{}}
	for _, m := range endToEndMetrics {
		out.Metrics[m.name] = metric{values[m.name], m.unit}
		out.lines = append(out.lines, fmt.Sprintf("%-34s %12.4f %s", m.name, values[m.name], m.unit))
	}
	out.lines = append(out.lines, fmt.Sprintf("(setup_s: median of %d builds; latency_ms: median of %d samples)", setupRepeats, unit.n()))
	if res.attempted < 1 {
		err = errors.Join(err, errors.New("no work was attempted"))
	}
	if res.failed > 0 {
		err = errors.Join(err, fmt.Errorf("%d of %d operations failed", res.failed, res.attempted))
	}
	return out, err
}

// traced is the traced run. An untraced run of the same length on its own
// set-up gives the reference for the tracing overhead; a second set-up is
// then measured with every layer call wrapped in a span.
func traced(ctx context.Context, newBench func(context.Context, int64, string) (bench, error),
	name string, seed int64, work string, window time.Duration) (output, error) {
	b, err := newBench(ctx, seed, filepath.Join(work, "reference"))
	if err != nil {
		return output{}, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	ref, err := b.run(ctx, window, nil)
	if err := errors.Join(err, b.close()); err != nil {
		return output{}, fmt.Errorf("untraced reference: %w", err)
	}
	runtime.GC()
	b, err = newBench(ctx, seed, filepath.Join(work, "traced"))
	if err != nil {
		return output{}, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	tr := newTracer()
	res, err := b.run(ctx, window, tr)
	err = errors.Join(err, b.close())
	spans := tr.snapshot()
	p := analyze(spans)

	layers := map[string]metric{}
	for _, k := range perLayerMetrics {
		layers[k.name] = metric{0, k.unit}
	}
	for k, v := range res.layers {
		if _, ok := layers[k]; !ok {
			err = errors.Join(err, fmt.Errorf("unregistered per-layer metric %q", k))
		}
		layers[k] = v
	}
	units := float64(res.attempted)
	for _, l := range traceLayers {
		layers["self."+l+"_ms"] = metric{ms(p.Self[l]) / units, "ms"}
	}
	ratio := float64(p.SelfSum) / float64(p.Roots)
	layers["trace.self_sum_ratio"] = metric{ratio, "ratio"}
	overhead := 100 * (res.cost - ref.cost) / ref.cost
	layers["trace.overhead_pct"] = metric{overhead, "%"}

	lines := append([]string{}, res.lines...)
	lines = append(lines, fmt.Sprintf("traced %s: %d spans over %.0f units; self-time sum / root time = %.4f (tolerance ±%.0f%%)",
		name, p.Count, units, ratio, 100*selfSumTolerance))
	lines = append(lines, fmt.Sprintf("tracing overhead: %.4f ms untraced, %.4f ms traced, %.2f%%",
		ref.cost, res.cost, overhead))
	var names []string
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		lines = append(lines, fmt.Sprintf("%-40s %14.4f %s", k, layers[k].Value, layers[k].Unit))
	}
	if !(ratio >= 1-selfSumTolerance && ratio <= 1+selfSumTolerance) {
		err = errors.Join(err, fmt.Errorf("self times sum to %.4f of root time, outside ±%.0f%%", ratio, 100*selfSumTolerance))
	}
	if werr := writeSpans(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed)), spans); werr != nil {
		err = errors.Join(err, werr)
	}
	return output{Attempted: res.attempted, Failed: res.failed, Metrics: layers, lines: lines}, err
}

// selfSumTolerance is how far the per-layer self times may sum from the
// traced root time before the traced run fails: spans recorded by the
// benchmark nest exactly, so only clock reads between sibling spans and
// a server span's scheduling delay stay unaccounted.
const selfSumTolerance = 0.02

// traceLayers are the layers whose self time the traced run reports; a
// layer a workload does not call reports 0.
var traceLayers = []string{
	"bench", "netalyzr", "tlsnet", "mitm", "collect", "notarynet", "notaryshard",
	"notary", "dataset", "analysis", "report",
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB. Where
// /proc is unavailable it falls back to the memory the Go runtime obtained
// from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
