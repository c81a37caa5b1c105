// Command perfbench is the PARDIS benchmark: it runs one workload (echo,
// kv or spmd) against the real stack for a fixed time, verifies every
// reply, and prints the metrics BENCHMARK.json declares — end-to-end
// metrics on an untraced run (--trace 0), per-layer metrics on a run that
// adds a traced phase and the layer probes (--trace 1). The last line of
// standard output is one JSON object; a human-readable report goes to
// standard error. See README.md.
//
//	go run . --workload echo --seed 1 --seconds 10 --trace 0 --spec ../BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pardis/internal/core"
	"pardis/internal/obs"
)

const (
	setupRuns  = 31                     // set-ups per run; setup_s is their median
	warmup     = 500 * time.Millisecond // before any measured phase
	phaseGrace = 20 * time.Second       // past a phase deadline before clients are aborted
	closeWait  = 10 * time.Second
)

// workloads maps each name to its set-up.
var workloads = map[string]func(seed int64) (*env, error){
	"echo": func(seed int64) (*env, error) { return setupSingle(echoSpec(seed)) },
	"kv":   func(seed int64) (*env, error) { return setupSingle(kvSpec(seed)) },
	"spmd": func() func(int64) (*env, error) {
		var in *spmdInputs
		return func(seed int64) (*env, error) {
			if in == nil {
				in = newSPMDInputs(seed)
			}
			return setupSPMD(in)
		}
	}(),
}

func main() {
	workload := flag.String("workload", "", "echo | kv | spmd")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark declaration")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(workload string, seed int64, seconds float64, traced bool, specPath string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	setup := workloads[workload]
	if setup == nil {
		return fmt.Errorf("no workload %q", workload)
	}
	if !sp.hasWorkload(workload) {
		// spmd runs on its own for study; the declared workloads report its
		// figures from the spmd section of their traced runs.
		fmt.Fprintf(os.Stderr, "perfbench: workload %q is not declared in %s\n", workload, specPath)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	m, f, err := measureWorkload(setup, seed, time.Duration(seconds*float64(time.Second)), traced)
	if err != nil {
		return err
	}
	// The self-check: everything measured is declared (the names themselves
	// were checked when the spec loaded), and every metric declared for the
	// mode is measured.
	declared := map[string]bool{}
	for _, n := range sp.names() {
		declared[n] = true
	}
	for name := range m {
		if !declared[name] {
			return fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	decl := sp.EndToEnd
	if traced {
		decl = sp.PerLayer
	}
	out := result{
		Correct:   f.failed == 0,
		Attempted: f.attempted,
		Failed:    f.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range decl {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s declared but not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	report, _ := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
		"failures": f.String(), "metrics": out.Metrics,
	}, "", "  ")
	fmt.Fprintln(os.Stderr, string(report))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureWorkload measures the workload for dur: untraced throughout, or —
// when traced — a third untraced, a third traced, and a third on the spmd
// section, followed by the layer probes.
func measureWorkload(setup func(int64) (*env, error), seed int64, dur time.Duration, traced bool) (map[string]float64, failures, error) {
	if !traced {
		return measureEnv(setup, seed, setupRuns, dur, 0)
	}
	m, f, err := measureEnv(setup, seed, setupRuns, dur/3, dur/3)
	if err != nil {
		return nil, f, err
	}
	sm, sf, err := measureEnv(workloads["spmd"], seed, spmdSectionSetups, dur/6, dur/6)
	if err != nil {
		return nil, f, fmt.Errorf("spmd section: %w", err)
	}
	for _, name := range spmdSection {
		m["spmd."+name] = sm[name]
	}
	f.add(sf)
	probes, err := runProbes()
	if err != nil {
		return nil, f, err
	}
	for k, v := range probes {
		m[k] = v
	}
	return m, f, nil
}

// spmdSection lists the spmd metrics every traced run reports under an
// "spmd." prefix: the agreement, collective, schedule, streaming and tuning
// layers only the spmd shape exercises, and spmd's own end-to-end figures,
// whose small-op median is too unsteady to gate (see README.md).
var spmdSection = []string{
	"setup_s", "ops_per_s", "small_p50_us", "large_p50_us", "cpu_us_per_op", "heap_B_per_op",
	"poa.agreement_phases_per_op", "poa.agreement_useful_frac", "poa.agreement.self_us",
	"poa.collect.self_us", "poa.dispatch.self_us", "poa.servant_us",
	"rts.rounds_per_op", "rts.bcast_per_op", "rts.allreduce_per_op",
	"rts.bcast.self_us", "rts.allreduce.self_us",
	"dist.schedule_hit_frac", "stream.chunks_per_op", "stream.peak_buffer_B",
	"tune.probes_per_kop", "tune.switches_per_kop", "go.allocs_per_op", "go.gc_per_kop",
}

// spmdSectionSetups is the number of spmd set-ups in a traced run's spmd
// section.
const spmdSectionSetups = 3

// measureEnv sets the workload up setups times (keeping the last
// environment), warms it up, measures it untraced for plain and then
// traced for traced (when non-zero).
func measureEnv(setup func(int64) (*env, error), seed int64, setups int, plain, traced time.Duration) (map[string]float64, failures, error) {
	m := map[string]float64{}
	var setupS, lookups, binds []float64
	var e *env
	for i := 0; i < setups; i++ {
		var err error
		if e, err = setup(seed); err != nil {
			return nil, failures{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, float64(e.setupNS)/1e9)
		lookups = append(lookups, float64(e.lookupNS)/1e3)
		binds = append(binds, float64(e.bindNS)/1e3)
		if i < setups-1 && !e.close(closeWait) {
			return nil, failures{}, fmt.Errorf("set-up %d: environment did not shut down", i)
		}
	}
	m["setup_s"] = median(setupS)
	m["registry.lookup_us"] = median(lookups)
	m["registry.bind_us"] = median(binds)
	m["nexus.conns_live"] = float64(e.connsLive)

	all := e.runPhase(phase{deadline: time.Now().Add(warmup)}, phaseGrace)
	recs, c := measured(e, plain)
	endToEnd(m, recs, c)
	layerCounters(m, recs, c)
	all = append(all, recs...)
	if traced > 0 && !e.stalled {
		trecs, st, dropped := tracedRun(e, time.Now().Add(traced))
		all = append(all, trecs...)
		layerSpans(m, trecs, st, dropped)
	}
	f := countFailures(all)
	if !e.close(closeWait) {
		f.stalled++
		f.failed++
	}
	return m, f, nil
}

// counters is a snapshot of the process around a measured phase.
type counters struct {
	wallNS, cpuNS  int64
	mallocs, bytes uint64
	gcs            uint32
	reg            map[string]float64
}

// readMetric returns the current value of one registered counter or gauge.
func readMetric(name string) float64 { return snapshot().reg[name] }

func snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		wallNS: obs.NowNS(), cpuNS: cpuNS(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC,
		reg: map[string]float64{},
	}
	obs.Default.Each(func(name string, m any) {
		switch v := m.(type) {
		case *obs.Counter:
			c.reg[name] = float64(v.Load())
		case *obs.Gauge:
			c.reg[name] = float64(v.Load())
		case obs.GaugeFunc:
			c.reg[name] = v()
		case *obs.Histogram:
			c.reg[name+".p50"] = v.Snapshot().P50
		}
	})
	return c
}

// delta is the change of every snapshot field over a phase.
type delta struct{ before, after counters }

func (d delta) reg(name string) float64 { return d.after.reg[name] - d.before.reg[name] }

// measured runs one untraced phase of the given length between two
// snapshots. The stream layer's peak-buffer gauge is a high-water mark, so
// it is reset first to cover this phase alone.
func measured(e *env, dur time.Duration) ([]opRec, delta) {
	if e.stalled {
		return nil, delta{}
	}
	core.ResetStreamPeak()
	before := snapshot()
	recs := e.runPhase(phase{deadline: time.Now().Add(dur)}, phaseGrace)
	return recs, delta{before, snapshot()}
}
