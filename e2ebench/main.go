// Command e2ebench is the repository's composed end-to-end benchmark. It
// drives the shipped layers through their public APIs — netlink sampling
// and route programming over a fake kernel, the core agent and its retry
// decorator, fleet serving and pulling over an in-process transport, and
// the scenario simulator — on a simulated clock, checks their outputs, and
// prints one JSON result line.
//
//	e2ebench --workload daemon-steady --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a traced run times the calls into each layer from the benchmark's own
// wrappers and reports per-layer metrics instead. See NOTES.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// maxSpansWritten caps the spans written to the artifacts directory; the
// summaries always cover every span.
const maxSpansWritten = 200000

// workload is one named input the benchmark drives as a closed loop of
// steps on the simulated clock.
type workload interface {
	// setup builds the system under test from the seed, ready to step.
	setup(ctx context.Context, seed int64, tr *tracer) error
	// step runs one closed-loop step and returns the wall time the
	// step's latency metric covers.
	step(tr *tracer) (time.Duration, error)
	// simPerStep is the simulated time one step covers.
	simPerStep() time.Duration
	// counters returns the cumulative layer counters.
	counters() counters
	// traced runs once at the start of the traced phase, for layer
	// timings that need their own runs.
	traced(tr *tracer) error
	// finish checks the outputs at run end and adds the workload's own
	// per-layer metrics to m. It returns extra attempted and failed
	// operations (assertions, propagations).
	finish(m map[string]float64) (attempted, failed uint64, err error)
}

var workloads = map[string]func() workload{
	"daemon-steady":     func() workload { return newSteady() },
	"daemon-turnover":   func() workload { return newTurnover() },
	"fleet-propagation": func() workload { return newFleetLoad() },
	"sim-outcome":       func() workload { return newSimLoad() },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: daemon-steady, daemon-turnover, fleet-propagation, sim-outcome")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	artifacts := flag.String("artifacts", "", "directory for the traced run's CPU profile and spans (empty: none)")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, summary, err := execute(*name, mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *artifacts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Printf("# workload=%s seed=%d trace=%d gomaxprocs=%d nproc=%d go=%s rev=%s %s\n",
		*name, *seed, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), revision(), summary)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// revision names the source the binary was built from, as set by the
// launcher script.
func revision() string {
	if r := os.Getenv("E2EBENCH_REVISION"); r != "" {
		return r
	}
	return "unknown"
}

// loopStats is what one measured phase of the closed loop observed.
type loopStats struct {
	steps    int
	lat      []float64 // per-step latency, ms
	blocks   []block
	sim      time.Duration
	stepErrs uint64
	before   counters
	after    counters
}

// block is a run of consecutive steps at least blockLen long: the unit the
// CPU and throughput metrics take their median over, so that a burst of machine
// noise moves one block, not the whole result.
type block struct {
	wall, cpu, sim time.Duration
}

const blockLen = 250 * time.Millisecond

// measure steps w for d of wall time.
func measure(w workload, d time.Duration, tr *tracer) loopStats {
	ls := loopStats{before: w.counters()}
	start := time.Now()
	blockStart, blockCPU, blockSteps := start, cpuTime(), 0
	for time.Since(start) < d {
		var sp int32 = -1
		if tr != nil {
			tr.step = int32(ls.steps)
			sp = tr.begin(spanStep)
		}
		lat, err := w.step(tr)
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			ls.stepErrs++
		}
		ls.lat = append(ls.lat, float64(lat)/1e6)
		ls.steps++
		blockSteps++
		if now := time.Now(); now.Sub(blockStart) >= blockLen {
			cpu := cpuTime()
			ls.blocks = append(ls.blocks, block{wall: now.Sub(blockStart), cpu: cpu - blockCPU, sim: time.Duration(blockSteps) * w.simPerStep()})
			blockStart, blockCPU, blockSteps = now, cpu, 0
		}
	}
	ls.sim = time.Duration(ls.steps) * w.simPerStep()
	ls.after = w.counters()
	return ls
}

// cpuPerSim is the median over blocks of CPU milliseconds per simulated
// second.
func (ls loopStats) cpuPerSim() float64 {
	xs := make([]float64, len(ls.blocks))
	for i, b := range ls.blocks {
		xs[i] = ratio(float64(b.cpu)/1e6, b.sim.Seconds())
	}
	return median(xs)
}

// simRate is the median over blocks of simulated seconds per wall second.
func (ls loopStats) simRate() float64 {
	xs := make([]float64, len(ls.blocks))
	for i, b := range ls.blocks {
		xs[i] = ratio(b.sim.Seconds(), b.wall.Seconds())
	}
	return median(xs)
}

// execute runs one benchmark run: setupReps builds, then the measured
// loop (untraced), or an untraced and a traced half (traced).
func execute(name string, mk func() workload, seed int64, d time.Duration, traced bool, artifacts string) (result, string, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var w workload
	var setups []float64
	var err error
	for i := 0; i < setupReps; i++ {
		// Drop the previous build before the next, so each setup starts
		// from the same heap.
		w = nil
		runtime.GC()
		debug.FreeOSMemory()
		w = mk()
		start := time.Now()
		if err = w.setup(ctx, seed, tr); err != nil {
			return result{}, "", fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// The built, warmed system's memory, read before the measured loop:
	// the loop runs for wall time, so state that grows with simulated
	// time would otherwise make a faster program look bigger.
	heap := liveHeapMB()

	res := result{Correct: true, Metrics: make(map[string]metric)}
	var phases []loopStats
	var summary string
	layer := make(map[string]float64)
	if !traced {
		ls := measure(w, d, nil)
		phases = append(phases, ls)
		summary = fmt.Sprintf("steps=%d sim_s=%.0f", ls.steps, ls.sim.Seconds())
		e2e := map[string]float64{
			"setup_s":          median(setups),
			"heap_live_mb":     heap,
			"step_p50_ms":      percentile(ls.lat, 50),
			"cpu_ms_per_sim_s": ls.cpuPerSim(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		plain := measure(w, d/2, tr)
		stopProfile, err := startProfile(artifacts, name, seed)
		if err != nil {
			return result{}, "", err
		}
		tr.on = true
		err = w.traced(tr)
		ls := measure(w, d/2, tr)
		tr.on = false
		if perr := stopProfile(); err == nil {
			err = perr
		}
		if err != nil {
			return result{}, "", fmt.Errorf("traced phase: %w", err)
		}
		phases = append(phases, plain, ls)
		layerMetrics(layer, ls, summarize(tr.spans))
		layer["trace.overhead_pct"] = 100 * (ratio(percentile(ls.lat, 50), percentile(plain.lat, 50)) - 1)
		layer["trace.spans"] = float64(len(tr.spans))
		layer["run.max_rss_mb"] = maxRSSMB()
		layer["run.step_p99_ms"] = percentile(plain.lat, 99)
		layer["run.sim_rate"] = plain.simRate()
		summary = fmt.Sprintf("steps=%d+%d spans=%d", plain.steps, ls.steps, len(tr.spans))
		if artifacts != "" {
			path := filepath.Join(artifacts, fmt.Sprintf("%s-seed%d.spans.csv", name, seed))
			if err := writeSpans(path, tr.spans, maxSpansWritten); err != nil {
				return result{}, "", err
			}
		}
	}
	res.Attempted, res.Failed, err = w.finish(layer)
	if err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "e2ebench: %s: output check: %v\n", name, err)
	}
	tallyPhases(&res, phases)
	if traced {
		layer["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layer[m.name], m.unit}
		}
	}
	return res, summary, nil
}

// tallyPhases adds the loop's operations to attempted and failed: ticks,
// route messages and pulls attempted; tick errors, route ops still failed
// after retries, and failed pulls.
func tallyPhases(res *result, phases []loopStats) {
	for _, ls := range phases {
		d := ls.after.sub(ls.before)
		res.Attempted += uint64(ls.steps) + d[cTicks] + d[cRouteMsgs] + d[cPulls] + d[cPullFailures]
		res.Failed += ls.stepErrs + d[cExhausted] + d[cPullFailures]
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
}

// startProfile starts a CPU profile into the artifacts directory; the
// returned func stops it and closes the file.
func startProfile(dir, name string, seed int64) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.cpu.pprof", name, seed)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// maxRSSMB is the process's peak resident set, in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
