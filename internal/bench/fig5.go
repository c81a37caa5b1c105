package bench

import (
	"fmt"

	"pardis/internal/apps"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/poa"
	"pardis/internal/typecode"
	"pardis/internal/vtime"
)

// Fig5Point is one processor count of Figure 5: the metaapplication's
// overall time and the component times (seconds).
type Fig5Point struct {
	Procs     int
	Overall   float64
	Diffusion float64 // diffusion component alone (compute + local viz)
	Gradient  float64 // gradient component alone (compute + its viz sends)
}

// Fig5Procs is the paper's sweep (diffusion and gradient processor counts
// move together).
var Fig5Procs = []int{1, 2, 4, 8}

// Fig5 parameters: the paper's 128x128 grid, 100 time-steps, gradient
// requested every 5th step.
const (
	fig5Grid  = 128
	fig5Steps = 100
	fig5Every = 5
)

// pipelineIfaces returns the visualizer and gradient interfaces, their
// operations declared oneway when asked.
func pipelineIfaces(oneway bool) (viz, gradOps *core.InterfaceDef) {
	field := typecode.DSequenceOf(typecode.TCDouble, fig5Grid*fig5Grid, "BLOCK", "BLOCK")
	iface := func(name, op string) *core.InterfaceDef {
		return &core.InterfaceDef{
			Name: name,
			Ops: []core.Operation{{
				Name:   op,
				Oneway: oneway,
				Params: []core.Param{core.NewParam("myfield", core.In, field)},
			}},
		}
	}
	return iface("visualizer", "show"), iface("field_operations", "gradient")
}

// vizServant consumes frames at a fixed per-frame cost.
type vizServant struct{}

func (vizServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	if op != "show" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	ctx.Thread.Compute(apps.VizWork)
	return nil, nil, nil
}

// gradServant charges the gradient cost and, given a visualizer board,
// pipelines the result to its own visualizer — the server-as-client role of
// §4.3.
type gradServant struct {
	r        *rank
	vizBoard *vtime.Chan // nil: no visualizer of its own
	vizIface *core.InterfaceDef
	viz      *core.Binding
}

func (g *gradServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	if op != "gradient" {
		return nil, nil, fmt.Errorf("no operation %s", op)
	}
	th := ctx.Thread
	work := apps.PerThread(apps.GradientWork(fig5Grid*fig5Grid), th.Size())
	if g.vizBoard == nil {
		th.Compute(work)
		return nil, nil, nil
	}
	g.bindViz()
	th.Compute(work)
	out := dseq.NewFromLayout[float64](th, in[0].(dseq.Distributed).DLayout(), dseq.Float64Codec{})
	if _, err := g.viz.InvokeNB("show", []any{out}); err != nil {
		return nil, nil, err
	}
	return nil, nil, nil
}

func (g *gradServant) bindViz() {
	if g.viz == nil {
		g.viz = g.r.bind(readBoard[core.IOR](g.r, g.vizBoard), g.vizIface)
	}
}

// fig5Config selects which parts of the metaapplication run, and how.
type fig5Config struct {
	sendToGradient bool // pipeline every 5th step to the gradient server
	sendToViz      bool // pipeline every step to the diffusion visualizer
	chargeCompute  bool // charge the diffusion stencil cost
	// gradientOnly replaces the diffusion unit by a one-thread driver that
	// only requests gradients, each completing before the next: the
	// gradient component alone, with its visualizer traffic.
	gradientOnly bool
	// oneway declares show and gradient oneway (§4.3: the paper's
	// invocations "were not oneway"): nothing to wait for, and the
	// gradient server pipelines to no visualizer.
	oneway bool
	// commThreads gives the diffusion client and the gradient server §6
	// communication-thread endpoints.
	commThreads bool
}

// fullFig5 is the whole metaapplication: Figure 5's overall curve.
var fullFig5 = fig5Config{sendToGradient: true, sendToViz: true, chargeCompute: true}

// runFig5 runs the pipeline with p diffusion threads and p gradient
// threads and returns the driving client's elapsed time in seconds.
func runFig5(p int, cfg fig5Config) float64 {
	w := newWorld()
	w.connect("powerchallenge", "sp2", "ethernet")
	w.connect("sp2", "indy", "ethernet")

	vizIface, gradIface := pipelineIfaces(cfg.oneway)

	// Visualizer for the diffusion unit: a sequential process on the same
	// SGI PC (loopback); for the gradient: on the SGI Indy over Ethernet.
	var vizDiffIOR, vizGradIOR *vtime.Chan
	if !cfg.gradientOnly {
		vizDiffIOR = w.spmdServer("viz-diff", "powerchallenge", 1, func(adapter *poa.POA) (core.IOR, error) {
			return adapter.RegisterSPMD("viz-diff", vizIface, vizServant{})
		})
	}
	if !cfg.oneway {
		vizGradIOR = w.spmdServer("viz-grad", "indy", 1, func(adapter *poa.POA) (core.IOR, error) {
			return adapter.RegisterSPMD("viz-grad", vizIface, vizServant{})
		})
	}

	// The gradient server: SPMD on the SP/2, also a client of its
	// visualizer (same endpoint, shared through the router).
	gradIOR := vtime.NewChan(w.sim, "grad-ior")
	w.spawn(group{name: "gradient", ep: "grad", host: "sp2", procs: p, async: cfg.commThreads, orb: true, poa: true}, func(r *rank) {
		impl := &gradServant{r: r, vizBoard: vizGradIOR, vizIface: vizIface}
		ior, err := r.poa.RegisterSPMD("gradient-1", gradIface, impl)
		if err != nil {
			panic(err)
		}
		if r.th.Rank() == 0 {
			r.post(gradIOR, ior)
		}
		r.poa.ImplIsReady()
		// Deactivation is collective, so every thread leaves together;
		// the gradient component then retires its own visualizer.
		if vizGradIOR != nil {
			impl.bindViz()
			if r.th.Rank() == 0 {
				if err := impl.viz.Shutdown("done"); err != nil {
					panic(err)
				}
			}
		}
	})

	// The diffusion unit: a POOMA-style parallel client on the SGI PC (or
	// the gradient-only driver in its place).
	name, procs := "diffusion", p
	if cfg.gradientOnly {
		name, procs = "driver", 1
	}
	var elapsed vtime.Time
	w.spawn(group{name: name, ep: name, host: "powerchallenge", procs: procs, async: cfg.commThreads, orb: true}, func(r *rank) {
		th := r.th
		// Both references are read before either collective bind: when the
		// binds run is part of the modeled timeline.
		var vizRef core.IOR
		if vizDiffIOR != nil {
			vizRef = readBoard[core.IOR](r, vizDiffIOR)
		}
		gradRef := readBoard[core.IOR](r, gradIOR)
		var viz *core.Binding
		if vizDiffIOR != nil {
			viz = r.bind(vizRef, vizIface)
		}
		grad := r.bind(gradRef, gradIface)
		field := dseq.New[float64](th, fig5Grid*fig5Grid, dist.BlockTemplate(), dseq.Float64Codec{})

		th.Barrier()
		start := r.p.Now()
		// Wait policy: the gradient-only driver's calls complete one at a
		// time, two-way calls are awaited together after the last step,
		// and oneway calls leave nothing to wait for.
		var pending []*future.Cell
		invoke := func(b *core.Binding, op string) {
			c, err := b.InvokeNB(op, []any{field})
			if err != nil {
				panic(err)
			}
			switch {
			case cfg.gradientOnly:
				err = c.Wait()
			case !cfg.oneway:
				pending = append(pending, c)
			}
			if err != nil {
				panic(err)
			}
		}
		for step := 1; step <= fig5Steps; step++ {
			if cfg.chargeCompute {
				th.Compute(apps.PerThread(apps.DiffusionStepWork(fig5Grid*fig5Grid), th.Size()))
			}
			if cfg.sendToViz {
				invoke(viz, "show")
			}
			if cfg.sendToGradient && step%fig5Every == 0 {
				invoke(grad, "gradient")
			}
		}
		for _, c := range pending {
			if err := c.Wait(); err != nil {
				panic(err)
			}
		}
		th.Barrier()
		if th.Rank() == 0 {
			elapsed = r.p.Now() - start
			if err := grad.Shutdown("done"); err != nil {
				panic(err)
			}
			if viz != nil {
				if err := viz.Shutdown("done"); err != nil {
					panic(err)
				}
			}
		}
	})
	w.run()
	return elapsed.Seconds()
}

// Figure5 regenerates the paper's Figure 5: the pipelined metaapplication's
// overall time against its components' standalone times, as the processor
// count of both parallel components grows.
func Figure5(procs []int) []Fig5Point {
	var out []Fig5Point
	for _, p := range procs {
		pt := Fig5Point{Procs: p}
		pt.Overall = runFig5(p, fullFig5)
		// Diffusion component alone: compute + its local visualizer.
		pt.Diffusion = runFig5(p, fig5Config{sendToViz: true, chargeCompute: true})
		pt.Gradient = runFig5(p, fig5Config{sendToGradient: true, gradientOnly: true})
		out = append(out, pt)
	}
	return out
}
