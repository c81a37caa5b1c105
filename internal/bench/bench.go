// Package bench regenerates the measurements of the paper's evaluation
// section on the simulated testbed: Figure 2 (distributed vs. local solver
// execution), Figure 4 (centralized vs. distributed single objects on a
// parallel server) and Figure 5 (the POOMA/PSTL pipeline), plus ablation
// experiments for the design choices DESIGN.md calls out.
//
// Figures 2, 4 and 5 and the ablations, collectives, tuner and serve
// experiments run the full PARDIS stack — IDL-defined operation tables,
// the ORB's request protocol, distributed argument segments, POA dispatch
// — on the vtime virtual clock over the simnet machine models, so their
// results are deterministic functions of the model. Absolute numbers are
// therefore comparable in *shape* (who wins, by what factor, where curves
// cross), not in microseconds, with the 1997 testbed. The transfer, fanin,
// stream and obs experiments instead measure the engine itself on real
// goroutines and the wall clock, so their numbers vary with host load.
//
// Every program is launched through one harness: world.spawn builds a
// virtual-clock group with each rank's endpoint, router and optional POA
// and ORB, and startServer starts a wall-clock server and returns its IOR
// with a stop func.
package bench

import (
	"fmt"
	"sync"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/simnet"
	"pardis/internal/vtime"
)

// world is one simulated deployment under construction.
type world struct {
	sim *vtime.Sim
	fab *nexus.SimFabric
	tb  *simnet.Testbed
}

func newWorld() *world {
	sim := vtime.NewSim()
	return &world{sim: sim, fab: nexus.NewSimFabric(sim), tb: simnet.PaperTestbed()}
}

// connect routes two hosts over a named testbed link.
func (w *world) connect(hostA, hostB, link string) {
	w.fab.Connect(hostA, hostB, w.tb.Link(link))
}

// group describes one program launched on the virtual clock: procs threads
// on a testbed host, each with its own endpoint and router, plus the POA
// and ORB the program asks for (sharing that router, so a server can also
// be a client).
type group struct {
	name  string
	host  string
	procs int
	// ep names each thread's endpoint "<ep>-<rank>"; empty names the
	// endpoint after the program itself. Endpoint names are part of the
	// model: they travel in every request as reply addresses.
	ep    string
	async bool                 // §6 communication-thread endpoint
	fault *nexus.FaultInjector // non-nil: endpoint wrapped for fault injection
	orb   bool
	poa   bool
}

// rank is one launched thread with the stack its group asked for.
type rank struct {
	th     rts.Thread
	p      *vtime.Proc // the thread's simulated process: clock and bulletin boards
	router *core.Router
	orb    *core.ORB
	poa    *poa.POA
}

// spawn launches g; body runs on every thread.
func (w *world) spawn(g group, body func(r *rank)) {
	h := w.tb.Host(g.host)
	rts.NewSimGroup(w.sim, h, g.procs).Spawn(g.name, func(th rts.Thread) {
		p := th.(*rts.SimThread).Proc()
		name := g.name
		if g.ep != "" {
			name = fmt.Sprintf("%s-%d", g.ep, th.Rank())
		}
		var ep nexus.Endpoint
		if g.async {
			ep = nexus.NewAsyncSimEndpoint(w.fab, name, p, h)
		} else {
			ep = w.fab.NewEndpoint(name, p, h)
		}
		if g.fault != nil {
			ep = g.fault.Wrap(ep)
		}
		r := &rank{th: th, p: p, router: core.NewRouter(ep)}
		if g.orb {
			r.orb = core.NewORB(r.router, th, nil)
		}
		if g.poa {
			r.poa = poa.New(th, r.router, nil)
			r.poa.PollInterval = 2e-3
		}
		body(r)
	})
}

// spmdServer launches a p-thread server program on host whose threads
// register their servant through setup; thread 0 publishes the IOR on the
// returned bulletin board, then every thread serves.
func (w *world) spmdServer(name, host string, p int, setup func(adapter *poa.POA) (core.IOR, error)) *vtime.Chan {
	iorCh := vtime.NewChan(w.sim, name+"-ior")
	w.spawn(group{name: name, ep: name, host: host, procs: p, poa: true}, func(r *rank) {
		ior, err := setup(r.poa)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", name, err))
		}
		if r.th.Rank() == 0 {
			r.post(iorCh, ior)
		}
		r.poa.ImplIsReady()
	})
	return iorCh
}

// run executes the simulation, returning the final virtual time.
func (w *world) run() vtime.Time {
	final, err := w.sim.Run()
	if err != nil {
		panic("bench: simulation failed: " + err.Error())
	}
	return final
}

// post publishes v on a bulletin board: a vtime channel every reader puts
// the value back on.
func (r *rank) post(board *vtime.Chan, v any) { r.p.Send(board, v, 0) }

// readBoard reads the value published on board and puts it back, so any
// number of procs can read it.
func readBoard[T any](r *rank, board *vtime.Chan) T {
	v := r.p.Recv(board)
	r.p.Send(board, v, 0)
	return v.(T)
}

// bind collectively binds the rank's ORB to ior.
func (r *rank) bind(ior core.IOR, iface *core.InterfaceDef) *core.Binding {
	b, err := r.orb.SPMDBind(ior, iface)
	if err != nil {
		panic(err)
	}
	return b
}

// startServer launches a ranks-thread server program on real goroutines for
// the wall-clock experiments: each rank's POA sits on an endpoint from newEP
// and polls every poll seconds, and setup tunes it and registers the
// servant. It returns rank 0's IOR once registered, and a stop func that
// sends the object's shutdown from stopEP and waits for every rank to leave.
func startServer(ranks int, poll float64, newEP func() nexus.Endpoint, stopEP nexus.Endpoint,
	setup func(adapter *poa.POA) (core.IOR, error)) (core.IOR, func()) {
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts.NewChanGroup("bench-server", ranks).Run(func(th rts.Thread) {
			adapter := poa.New(th, core.NewRouter(newEP()), nil)
			adapter.PollInterval = poll
			ior, err := setup(adapter)
			if err != nil {
				panic(err)
			}
			if th.Rank() == 0 {
				iorCh <- ior
			}
			adapter.ImplIsReady()
		})
	}()
	ior := <-iorCh
	return ior, func() {
		if err := stopEP.Send(nexus.Addr(ior.Addrs[0]), pgiop.EncodeShutdown(&pgiop.Shutdown{Reason: "bench done"})); err != nil {
			panic(err)
		}
		wg.Wait()
		stopEP.Close()
	}
}
