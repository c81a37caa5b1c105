package bench

import (
	"sync"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// The transfer-engine experiments measure the parallel segment transfer
// engine itself, so unlike the figures they run on real goroutines over the
// in-process fabric and report wall-clock time: schedule caching, fan-out
// width and dispatch pipelining only exist on concurrency-safe transports,
// which the virtual-time testbed (owner-thread sends only) by design is not.
// Numbers vary with host load; compare configurations within one run.

// TransferPoint is one transfer-engine configuration's wall-clock result.
type TransferPoint struct {
	Label   string  `json:"label"`
	Seconds float64 `json:"seconds"`
	PerSec  float64 `json:"per_sec,omitempty"` // ops or transfers per second
}

// TransferScheduleCache times building block→cyclic redistribution plans
// for n elements over p threads cold against hitting the schedule cache,
// then a full dseq redistribution round-trip which reuses cached plans
// after the first iteration.
func TransferScheduleCache(n, p, iters int) []TransferPoint {
	src := dist.BlockTemplate().Layout(n, p)
	dst := dist.CyclicTemplate().Layout(n, p)

	t0 := time.Now()
	for i := 0; i < iters; i++ {
		dist.NewSchedule(src, dst)
	}
	cold := time.Since(t0).Seconds() / float64(iters)

	cache := dist.NewScheduleCache(16)
	cache.Get(src, dst) // prime
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		cache.Get(src, dst)
	}
	hit := time.Since(t0).Seconds() / float64(iters)

	// Collective redistribution ping-pong on the chan backend: every round
	// after the first reuses both directions' cached schedules.
	g := rts.NewChanGroup("xfer-cache", p)
	var redis float64
	g.Run(func(th rts.Thread) {
		s := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
		for loc := range s.Local() {
			s.Local()[loc] = float64(loc)
		}
		th.Barrier()
		start := time.Now()
		for i := 0; i < iters; i++ {
			s.Redistribute(dist.CyclicTemplate())
			s.Redistribute(dist.BlockTemplate())
		}
		th.Barrier()
		if th.Rank() == 0 {
			redis = time.Since(start).Seconds() / float64(2*iters)
		}
	})
	return []TransferPoint{
		{Label: "schedule-build", Seconds: cold, PerSec: 1 / cold},
		{Label: "schedule-cached", Seconds: hit, PerSec: 1 / hit},
		{Label: "redistribute-round", Seconds: redis, PerSec: 1 / redis},
	}
}

// TransferFanout times SPMD invocations moving an n-double sequence
// between one client thread and eight server threads — the concentrated
// layout of the paper's Figure 2 — serial versus a 4-worker segment
// fan-out. Each invocation ships eight in-segments from the client and
// eight out-segments back, so the fan-out width is real (block layouts
// over equal thread counts produce identity schedules with one move per
// thread, which have nothing to parallelize).
func TransferFanout(n, iters int) []TransferPoint {
	return []TransferPoint{
		{Label: "fanout-serial", Seconds: fanoutTime(n, iters, 1, 8)},
		{Label: "fanout-4-workers", Seconds: fanoutTime(n, iters, 4, 8)},
	}
}

// TransferSPMD times the full-stack SPMD "scale" invocation against a
// four-thread server — the invocation shape the tracing acceptance
// inspects: one stub call fanning out to four ranks, every span sharing
// the stub's trace ID and nesting stub → ORB → pgiop → POA → rts. Run
// under pardis-bench -trace to capture that timeline.
func TransferSPMD(n, iters int) []TransferPoint {
	sec := fanoutTime(n, iters, 1, 4)
	return []TransferPoint{
		{Label: "spmd-4rank-invoke", Seconds: sec, PerSec: 1 / sec},
	}
}

func fanoutTime(n, iters, workers, S int) float64 {
	const C = 1
	fab := nexus.NewInproc()
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts.NewChanGroup("fan-srv", S).Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint("fan-srv"))
			p := poa.New(th, r, nil)
			p.PollInterval = 20e-6
			p.TransferWorkers = workers
			ior, err := p.RegisterSPMD("fan-1", scaleBenchIface(), scaleBenchServant{})
			if err != nil {
				panic(err)
			}
			if th.Rank() == 0 {
				iorCh <- ior
			}
			p.ImplIsReady()
		})
	}()
	ior := <-iorCh
	var elapsed float64
	rts.NewChanGroup("fan-cli", C).Run(func(th rts.Thread) {
		r := core.NewRouter(fab.NewEndpoint("fan-cli"))
		orb := core.NewORB(r, th, nil)
		orb.TransferWorkers = workers
		b, err := orb.SPMDBind(ior, scaleBenchIface())
		if err != nil {
			panic(err)
		}
		x := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
		y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
		th.Barrier()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := b.Invoke("scale", []any{2.0, x, y}); err != nil {
				panic(err)
			}
		}
		th.Barrier()
		if th.Rank() == 0 {
			elapsed = time.Since(start).Seconds() / float64(iters)
			b.Shutdown("bench done")
		}
	})
	wg.Wait()
	return elapsed
}

func scaleBenchIface() *core.InterfaceDef {
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK")
	return &core.InterfaceDef{
		Name: "fanscale",
		Ops: []core.Operation{{
			Name: "scale",
			Params: []core.Param{
				core.NewParam("k", core.In, typecode.TCDouble),
				core.NewParam("x", core.In, dv),
				core.NewParam("y", core.Out, dv),
			},
		}},
	}
}

type scaleBenchServant struct{}

func (scaleBenchServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	k := in[0].(float64)
	x := dseq.AsFloat64(in[1].(dseq.Distributed))
	y := dseq.NewFromLayout[float64](ctx.Thread, x.DLayout(), dseq.Float64Codec{})
	for i, v := range x.Local() {
		y.Local()[i] = k * v
	}
	return nil, []any{y}, nil
}

// TransferSingleDispatch measures many-client throughput against one
// single object, serial dispatch versus a 4-worker dispatch pool.
func TransferSingleDispatch(clients, calls int) []TransferPoint {
	serial := singleDispatchTime(clients, calls, 0)
	pooled := singleDispatchTime(clients, calls, 4)
	total := float64(clients * calls)
	return []TransferPoint{
		{Label: "dispatch-serial", Seconds: serial, PerSec: total / serial},
		{Label: "dispatch-4-workers", Seconds: pooled, PerSec: total / pooled},
	}
}

func singleDispatchTime(clients, calls, workers int) float64 {
	fab := nexus.NewInproc()
	iorCh := make(chan core.IOR, 1)
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		th := rts.NewChanGroup("disp-srv", 1).Thread(0)
		r := core.NewRouter(fab.NewEndpoint("disp-srv"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		ior, err := p.RegisterSingle("disp-1", workIface(), workServant{})
		if err != nil {
			panic(err)
		}
		p.SetDispatchWorkers(workers, workers)
		iorCh <- ior
		p.ImplIsReady()
	}()
	ior := <-iorCh
	start := time.Now()
	var cliWG sync.WaitGroup
	for c := 0; c < clients; c++ {
		cliWG.Add(1)
		go func() {
			defer cliWG.Done()
			orb := core.NewORB(core.NewRouter(fab.NewEndpoint("disp-cli")), nil, nil)
			b, err := orb.Bind(ior, workIface())
			if err != nil {
				panic(err)
			}
			for i := 0; i < calls; i++ {
				if _, err := b.Invoke("work", []any{int32(2000), nil}); err != nil {
					panic(err)
				}
			}
		}()
	}
	cliWG.Wait()
	elapsed := time.Since(start).Seconds()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("disp-stop")), nil, nil)
	b, err := orb.Bind(ior, workIface())
	if err != nil {
		panic(err)
	}
	if err := b.Shutdown("bench done"); err != nil {
		panic(err)
	}
	srvWG.Wait()
	return elapsed
}

func workIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "work",
		Ops: []core.Operation{{
			Name: "work",
			Params: []core.Param{
				core.NewParam("n", core.In, typecode.TCLong),
				core.NewParam("sum", core.Out, typecode.TCDouble),
			},
		}},
	}
}

// workServant burns a few microseconds of compute per call, standing in for
// the per-query work of the paper's Figure 4 list servers.
type workServant struct{}

func (workServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	n := int(in[0].(int32))
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / float64(i)
	}
	return nil, []any{sum}, nil
}
