package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/typecode"
)

// The obs experiment prices the observability plane itself. Three cells:
//
//   - overhead: the in-process ORB round trip with tracing off, with the
//     retain-all ring, and with the flight recorder on at 0%, 1% and 100%
//     interesting invocations — the recorder's promise is that the boring
//     path recycles pooled buffers, so its cost must not scale with the
//     interesting fraction of a healthy (mostly boring) workload.
//   - retention: a mixed load with a known ≤5% interesting subset (designated
//     errors and designated-slow invocations); the recorder must keep ≥95%
//     of the interesting traces while the boring bulk recycles and the
//     retained set stays within its configured bound. TestObsPlaneGate
//     asserts these numbers.
//   - scrape: the cost of one /debug/federate render over a synthetic
//     multi-group repository — what a cluster-level Prometheus pays per
//     scrape instead of visiting every replica.
//
// Unlike the paper figures this one measures wall-clock time on real
// goroutines, so overhead numbers vary with host load; compare modes within
// one run.

// ObsPoint is one cell of the obs experiment.
type ObsPoint struct {
	Cell string `json:"cell"` // overhead | retention | scrape

	// Overhead rows.
	Mode            string  `json:"mode,omitempty"` // off | ring | recorder
	InterestingFrac float64 `json:"interesting_frac"`
	Invocations     int     `json:"invocations,omitempty"`
	NsPerOp         float64 `json:"ns_per_op,omitempty"`

	// Retention row.
	Interesting         int     `json:"interesting,omitempty"`
	RetainedInteresting int     `json:"retained_interesting,omitempty"`
	Recall              float64 `json:"recall,omitempty"`
	Boring              int     `json:"boring,omitempty"`
	BoringRetained      int     `json:"boring_retained"`
	RetainedCount       int     `json:"retained_count,omitempty"`
	RetainedBound       int     `json:"retained_bound,omitempty"`
	Recycled            uint64  `json:"recycled,omitempty"`

	// Scrape row.
	Groups    int     `json:"groups,omitempty"`
	Members   int     `json:"members,omitempty"`
	ScrapeNs  float64 `json:"scrape_ns,omitempty"`
	PageBytes int     `json:"page_bytes,omitempty"`
}

// obsWorkKind selects the servant's behavior per invocation.
const (
	obsWorkFast  = int32(0)
	obsWorkSlow  = int32(1)
	obsWorkError = int32(2)
)

func obsIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "obs_svc",
		Ops: []core.Operation{{
			Name:       "work",
			Params:     []core.Param{core.NewParam("kind", core.In, typecode.TCLong)},
			Result:     typecode.TCLong,
			Idempotent: true,
		}},
	}
}

var errObsDesignated = errors.New("designated interesting failure")

// obsServant answers fast, slow (a real wall-clock stall) or with an error,
// as the invocation asks.
type obsServant struct{ slow time.Duration }

func (s obsServant) Invoke(_ *poa.Context, op string, in []any) (any, []any, error) {
	if op != "work" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	switch in[0].(int32) {
	case obsWorkSlow:
		time.Sleep(s.slow)
	case obsWorkError:
		return nil, nil, errObsDesignated
	}
	return int32(0), nil, nil
}

// obsCall invokes one kind of work and panics unless the call fails exactly
// when it was designated to.
func obsCall(b *core.Binding, kind int32) {
	if _, err := b.Invoke("work", []any{kind}); (err != nil) != (kind == obsWorkError) {
		panic(fmt.Sprintf("bench: obs work kind %d: error %v", kind, err))
	}
}

// obsTracerOff restores the default tracer to its disabled ring state.
func obsTracerOff() {
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.DisableRecorder()
	obs.DefaultTracer.SetEnabled(false)
}

// runObsOverhead times invocations invocations of the fast round trip under
// the given tracer mode; every 1/frac-th invocation is error-flavored
// interesting (errors, not sleeps, so the timing compares like with like).
func runObsOverhead(b *core.Binding, mode string, frac float64, invocations int) ObsPoint {
	obs.DefaultTracer.Reset()
	switch mode {
	case "ring":
		obs.DefaultTracer.SetEnabled(true)
	case "recorder":
		// A fixed huge slow threshold keeps "interesting" exactly the
		// designated errors, so the 0% row really is 100% boring.
		obs.DefaultTracer.EnableRecorder(obs.RecorderConfig{FixedSlowNS: 1 << 60})
	}
	defer obsTracerOff()

	every := 0
	if frac > 0 {
		every = int(1 / frac)
	}
	kindFor := func(i int) int32 {
		if every > 0 && i%every == 0 {
			return obsWorkError
		}
		return obsWorkFast
	}
	for i := 0; i < 100; i++ { // warmup
		obsCall(b, kindFor(i))
	}
	// Best of three timed passes: the round trip is microseconds, so a
	// single wall-clock pass is at the mercy of scheduler and GC noise;
	// the per-mode minimum is the standard micro-benchmark de-noiser.
	var best time.Duration
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := 0; i < invocations; i++ {
			obsCall(b, kindFor(i))
		}
		if elapsed := time.Since(start); pass == 0 || elapsed < best {
			best = elapsed
		}
	}
	return ObsPoint{
		Cell: "overhead", Mode: mode, InterestingFrac: frac,
		Invocations: invocations,
		NsPerOp:     float64(best.Nanoseconds()) / float64(invocations),
	}
}

// runObsRetention drives the mixed load with a seeded ≤5% interesting subset
// through the recorder and scores the retention decision.
func runObsRetention(b *core.Binding, invocations int, slowThreshold time.Duration) ObsPoint {
	cfg := obs.RecorderConfig{MaxTraces: 256, FixedSlowNS: slowThreshold.Nanoseconds()}
	obs.DefaultTracer.Reset()
	obs.DefaultTracer.EnableRecorder(cfg)
	defer obsTracerOff()

	rng := rand.New(rand.NewSource(41))
	nErr, nSlow := 0, 0
	for i := 0; i < invocations; i++ {
		kind := obsWorkFast
		switch r := rng.Float64(); {
		case r < 0.02:
			kind, nErr = obsWorkError, nErr+1
		case r < 0.04:
			kind, nSlow = obsWorkSlow, nSlow+1
		}
		obsCall(b, kind)
	}
	obs.DefaultTracer.Flush()

	retained := obs.DefaultTracer.Retained()
	errKept, slowOnlyKept := 0, 0
	for _, rt := range retained {
		switch {
		case rt.Marks&obs.RetainError != 0:
			errKept++
		case rt.Marks&obs.RetainSlow != 0:
			slowOnlyKept++
		}
	}
	// Designated errors can only be retained by their error mark and
	// designated-slow invocations by the slow mark, so capped per-mark
	// counts score recall; anything beyond the designated totals is a
	// boring trace that slipped through (a scheduler stall pushing a fast
	// invocation over the threshold).
	keptInteresting := min(errKept, nErr) + min(slowOnlyKept, nSlow)
	interesting := nErr + nSlow
	pt := ObsPoint{
		Cell:        "retention",
		Invocations: invocations,
		Interesting: interesting, RetainedInteresting: keptInteresting,
		Boring:         invocations - interesting,
		BoringRetained: max(0, len(retained)-interesting),
		RetainedCount:  len(retained),
		RetainedBound:  cfg.MaxTraces,
		Recycled:       obs.DefaultTracer.RecycledTotal(),
	}
	if interesting > 0 {
		pt.Recall = float64(keptInteresting) / float64(interesting)
	}
	return pt
}

// runObsScrape prices one federation-page render over a synthetic
// repository of groups x members digest-reporting replicas.
func runObsScrape(groups, members, iters int) ObsPoint {
	repo := registry.NewRepository()
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("svc-%d", g)
		for m := 0; m < members; m++ {
			id := fmt.Sprintf("m%d", m)
			ior := core.IOR{Interface: "svc", Key: id, ServerSize: 1,
				Addrs: []string{fmt.Sprintf("inproc://%s-%s/1", name, id)}}
			if _, _, err := repo.Invoke(nil, "register_member", []any{name, id, ior.String()}); err != nil {
				panic(err)
			}
			d := registry.Digest{
				Dispatches: uint64(1000*g + m), Sheds: uint64(m), Depth: m,
				P50: 0.001, P95: 0.002 * float64(m+1), P99: 0.005 * float64(m+1),
			}
			if _, _, err := repo.Invoke(nil, "report_load",
				[]any{name, id, d.P95, int32(d.Depth), d.Encode()}); err != nil {
				panic(err)
			}
		}
	}
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; i < iters; i++ {
		buf.Reset()
		if err := repo.WriteFederation(&buf); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	return ObsPoint{
		Cell: "scrape", Groups: groups, Members: members,
		ScrapeNs:  float64(elapsed.Nanoseconds()) / float64(iters),
		PageBytes: buf.Len(),
	}
}

// FigureObs runs every cell of the obs experiment. It owns the default
// tracer for the duration and leaves it disabled.
func FigureObs(quick bool) []ObsPoint {
	overheadN, retentionN := 8000, 1500
	scrapeG, scrapeM, scrapeIters := 16, 8, 300
	if quick {
		overheadN, retentionN = 1500, 400
		scrapeG, scrapeM, scrapeIters = 6, 4, 100
	}
	const slowSleep = 12 * time.Millisecond
	const slowThreshold = 4 * time.Millisecond

	fab := nexus.NewInproc()
	ior, stop := startServer(1, 20e-6, func() nexus.Endpoint { return fab.NewEndpoint("obs-server") },
		fab.NewEndpoint("obs-stopper"), func(p *poa.POA) (core.IOR, error) {
			return p.RegisterSingle("obs-server", obsIface(), obsServant{slow: slowSleep})
		})
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("obs-client")), nil, nil)
	b, err := orb.Bind(ior, obsIface())
	if err != nil {
		panic(err)
	}

	out := []ObsPoint{
		runObsOverhead(b, "off", 0, overheadN),
		runObsOverhead(b, "ring", 0, overheadN),
		runObsOverhead(b, "recorder", 0, overheadN),
		runObsOverhead(b, "recorder", 0.01, overheadN),
		runObsOverhead(b, "recorder", 1.0, overheadN),
		runObsRetention(b, retentionN, slowThreshold),
		runObsScrape(scrapeG, scrapeM, scrapeIters),
	}
	return out
}
