package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"time"

	"riptide/internal/scenario"
)

// simOutcomeYAML is the benchmark's outcome scenario; its fleet.seed is
// replaced by the benchmark's --seed.
//
//go:embed sim-outcome.yaml
var simOutcomeYAML []byte

// simLoad is the sim-outcome workload: one step is one Spec.Run of the
// outcome scenario (main run, control run, assertions). Every run of one
// seed must produce the same report bytes.
type simLoad struct {
	spec   *scenario.Spec
	want   []byte // the setup run's encoded report
	report *scenario.Report
	runs   uint64
	bad    uint64 // runs whose report differed or failed an assertion

	mainSec, controlSec float64 // traced main-only and control-only runs
}

func newSimLoad() *simLoad { return &simLoad{} }

// setup parses the scenario and runs it once: the report is the reference
// every measured run must reproduce, and the run lets lazy set-up finish.
func (w *simLoad) setup(_ context.Context, seed int64, _ *tracer) error {
	spec, err := scenario.Parse(simOutcomeYAML)
	if err != nil {
		return err
	}
	spec.Fleet.Seed = seed
	w.spec = spec
	if w.report, err = spec.Run(); err != nil {
		return err
	}
	w.want, err = w.report.Encode()
	return err
}

func (w *simLoad) step(tr *tracer) (time.Duration, error) {
	var sp int32 = -1
	if tr != nil {
		sp = tr.begin(spanScenario)
	}
	start := time.Now()
	rep, err := w.spec.Run()
	lat := time.Since(start)
	if tr != nil {
		tr.end(sp)
	}
	w.runs++
	if err != nil {
		w.bad++
		return lat, err
	}
	got, err := rep.Encode()
	if err != nil || !rep.Pass || !bytes.Equal(got, w.want) {
		w.bad++
		return lat, fmt.Errorf("run %d: report pass=%v, identical=%v", w.runs, rep.Pass, bytes.Equal(got, w.want))
	}
	return lat, nil
}

// simPerStep counts both the main and the control run's simulated time.
func (w *simLoad) simPerStep() time.Duration { return 2 * w.spec.Duration }

func (w *simLoad) counters() counters { return counters{} }

// traced times a main-only and a control-only run of the same spec.
func (w *simLoad) traced(*tracer) error {
	main := *w.spec
	main.Compare, main.Assertions = nil, nil
	control := main
	control.Fleet.Riptide.Enabled = false
	for _, r := range []struct {
		spec *scenario.Spec
		dst  *float64
	}{{&main, &w.mainSec}, {&control, &w.controlSec}} {
		start := time.Now()
		if _, err := r.spec.Run(); err != nil {
			return err
		}
		*r.dst = time.Since(start).Seconds()
	}
	return nil
}

// finish checks the setup report's assertions (measured runs that failed
// or differed were already counted as failed steps) and reports the
// outcome and the simulator's own counts from the report.
func (w *simLoad) finish(m map[string]float64) (uint64, uint64, error) {
	rep := w.report
	var failed uint64
	for _, a := range rep.Assertions {
		if !a.Pass {
			failed++
		}
	}
	get := func(run, name string) float64 {
		for _, r := range rep.Runs {
			if r.Name != run {
				continue
			}
			for _, mt := range r.Metrics {
				if mt.Name == name {
					return mt.Value
				}
			}
		}
		return 0
	}
	m["scenario.main_s"] = w.mainSec
	m["scenario.control_s"] = w.controlSec
	m["cdn.gossip_kb"] = get("riptide", "gossip.bytes.total") / 1024
	m["cdn.gossip_rounds"] = get("riptide", "gossip.rounds.total")
	m["cdn.probes"] = get("riptide", "probes.total")
	m["cdn.probe_speedup_p50"] = ratio(get("control", "probe_ms.p50.total"), get("riptide", "probe_ms.p50.total"))
	m["cdn.probe_speedup_p90"] = ratio(get("control", "probe_ms.p90.total"), get("riptide", "probe_ms.p90.total"))
	var err error
	if failed > 0 || w.bad > 0 {
		err = fmt.Errorf("%d of %d assertions failed; %d of %d runs failed or differed from the reference report",
			failed, len(rep.Assertions), w.bad, w.runs)
	}
	return uint64(len(rep.Assertions)), failed, err
}
