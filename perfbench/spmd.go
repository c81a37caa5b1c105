package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

const (
	spmdScaleN   = 1 << 20 // scale: 8 MiB in, 8 MiB out
	spmdNormN    = 1 << 10 // norm: 8 KiB in, one double out
	spmdRanks    = 2       // client and server threads alike
	spmdName     = "spmd"
	normRelError = 1e-12
)

// spmdClientDist is the client's layout of every distributed argument;
// the server's is BLOCK, so each call runs a real M×N schedule.
func spmdClientDist() dist.Template { return dist.Proportions(1, 3) }

func spmdIface() *core.InterfaceDef {
	dv := typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK")
	return &core.InterfaceDef{
		Name: "spmd",
		Ops: []core.Operation{
			{
				Name: "scale",
				Params: []core.Param{
					core.NewParam("k", core.In, typecode.TCDouble),
					core.NewParam("x", core.In, dv),
					core.NewParam("y", core.Out, dv),
				},
			},
			{
				Name:   "norm",
				Params: []core.Param{core.NewParam("x", core.In, dv)},
				Result: typecode.TCDouble,
			},
		},
	}
}

// sumF64 is the AllReduce fold of one float64 per rank.
func sumF64(acc, in []byte) []byte {
	s := math.Float64frombits(binary.LittleEndian.Uint64(acc)) +
		math.Float64frombits(binary.LittleEndian.Uint64(in))
	binary.LittleEndian.PutUint64(acc, math.Float64bits(s))
	return acc
}

// spmdServant: scale multiplies the local block, norm reduces the local
// sum of squares across the server's ranks with rts.AllReduce.
func spmdServant() poa.Servant {
	return timedServant(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		switch op {
		case "scale":
			k := in[0].(float64)
			x := dseq.AsFloat64(in[1].(dseq.Distributed))
			y := dseq.NewFromLayout[float64](ctx.Thread, x.DLayout(), dseq.Float64Codec{})
			yl := y.Local()
			for i, v := range x.Local() {
				yl[i] = k * v
			}
			return nil, []any{y}, nil
		case "norm":
			x := dseq.AsFloat64(in[0].(dseq.Distributed))
			s := 0.0
			for _, v := range x.Local() {
				s += v * v
			}
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, math.Float64bits(s))
			total := math.Float64frombits(binary.LittleEndian.Uint64(rts.AllReduce(ctx.Thread, buf, sumF64)))
			return math.Sqrt(total), nil, nil
		}
		return nil, nil, fmt.Errorf("spmd: no operation %s", op)
	})
}

// spmdInputs are the seeded global vectors every client rank slices its
// share from, and the reference norm computed locally.
type spmdInputs struct {
	scaleX, normX []float64
	norm          float64
}

func newSPMDInputs(seed int64) *spmdInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &spmdInputs{scaleX: make([]float64, spmdScaleN), normX: make([]float64, spmdNormN)}
	for i := range in.scaleX {
		in.scaleX[i] = rng.Float64()*2 - 1
	}
	s := 0.0
	for i := range in.normX {
		in.normX[i] = rng.Float64()*2 - 1
		s += in.normX[i] * in.normX[i]
	}
	in.norm = math.Sqrt(s)
	return in
}

// spmdRank is one client rank's state.
type spmdRank struct {
	th     rts.Thread
	b      *core.Binding
	scaleX *dseq.DSeq[float64]
	normX  *dseq.DSeq[float64]
}

func (c *spmdRank) fill(x *dseq.DSeq[float64], global []float64) {
	for i := range x.Local() {
		x.Local()[i] = global[x.DLayout().GlobalIndex(c.th.Rank(), i)]
	}
}

// call makes the i-th call of the alternating sequence (even: scale, odd:
// norm) and verifies this rank's share of the result.
func (c *spmdRank) call(i int, in *spmdInputs) opRec {
	rank := c.th.Rank()
	rec := opRec{large: i%2 == 0, bytes: 2*8*spmdScaleN + 8}
	t0 := obs.NowNS()
	var cell interface {
		Values() ([]any, error)
	}
	var err error
	issue := spanStart()
	if rec.large {
		y := dseq.New[float64](c.th, 0, spmdClientDist(), dseq.Float64Codec{})
		cell, err = c.b.InvokeNB("scale", []any{2.0, c.scaleX, y})
	} else {
		rec.bytes = 8*spmdNormN + 8
		cell, err = c.b.InvokeNB("norm", []any{c.normX})
	}
	traceSpan("core.issue", rank, issue)
	if err == nil {
		wait := spanStart()
		var vals []any
		vals, err = cell.Values()
		traceSpan("future.wait", rank, wait)
		if err == nil && !c.verify(rec.large, vals, in) {
			rec.fail = opWrong
		}
	}
	if err != nil {
		rec.fail = classify(err)
	}
	rec.finish(t0)
	return rec
}

func (c *spmdRank) verify(scale bool, vals []any, in *spmdInputs) bool {
	if len(vals) != 1 {
		return false
	}
	if !scale {
		got, ok := vals[0].(float64)
		return ok && math.Abs(got-in.norm) <= normRelError*in.norm
	}
	d, ok := vals[0].(dseq.Distributed)
	if !ok {
		return false
	}
	y := dseq.AsFloat64(d)
	l := y.DLayout()
	if l.N != spmdScaleN || len(y.Local()) != len(c.scaleX.Local()) {
		return false
	}
	for i, v := range y.Local() {
		if v != 2*in.scaleX[l.GlobalIndex(c.th.Rank(), i)] {
			return false
		}
	}
	return true
}

// setupSPMD starts a 2-rank SPMD server on the in-process fabric (rank 0
// also hosts the repository) and a 2-rank SPMD client whose ranks each
// look the server up, SPMDBind to it and make a first verified norm call.
func setupSPMD(in *spmdInputs) (*env, error) {
	start := time.Now()
	e := &env{inflight: 1}
	fab := nexus.NewInproc()
	var mu sync.Mutex
	var routers []*core.Router
	track := func(r *core.Router) {
		mu.Lock()
		routers = append(routers, r)
		mu.Unlock()
	}
	e.abort = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range routers {
			r.Close()
		}
	}
	addrc := make(chan string, 1)
	errc := make(chan error, spmdRanks)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		rts.NewChanGroup("spmd-server", spmdRanks).Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("spmd-server-%d", th.Rank())))
			track(r)
			defer r.Close()
			adapter := poa.New(th, r, nil)
			ior, err := adapter.RegisterSPMD(spmdName, spmdIface(), spmdServant())
			if err != nil {
				errc <- err
				return
			}
			if th.Rank() == 0 {
				repo := registry.NewRepository()
				if _, err := adapter.RegisterSingle(registry.RepositoryKey, registry.Iface(), repo); err != nil {
					errc <- err
					return
				}
				if _, _, err := repo.Invoke(nil, "register", []any{spmdName, ior.String()}); err != nil {
					errc <- err
					return
				}
				addrc <- string(r.Addr())
			}
			adapter.ImplIsReady()
		})
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		e.abort()
		return nil, err
	}

	ls := newLockstep(spmdRanks)
	readyc := make(chan ready, spmdRanks)
	for i := 0; i < spmdRanks; i++ {
		e.workers = append(e.workers, newWorker())
	}
	e.merge = mergeRanks
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		rts.NewChanGroup("spmd-client", spmdRanks).Run(func(th rts.Thread) {
			r := core.NewRouter(fab.NewEndpoint(fmt.Sprintf("spmd-client-%d", th.Rank())))
			track(r)
			defer r.Close()
			c, rd := dialSPMD(th, r, addr, in)
			readyc <- rd
			if rd.err != nil {
				return
			}
			e.workers[th.Rank()].serve(func(ph phase) []opRec {
				var recs []opRec
				for i := 0; ls.next(func() bool { return !ph.stop(i) }); i++ {
					recs = append(recs, c.call(i, in))
				}
				return recs
			})
			th.Barrier()
			if th.Rank() == 0 {
				_ = c.b.Shutdown("benchmark done")
			}
		})
	}()
	var firstErr error
	for i := 0; i < spmdRanks; i++ {
		rd := <-readyc
		if rd.err != nil && firstErr == nil {
			firstErr = rd.err
		}
		if rd.lookupNS > 0 {
			e.lookupNS, e.bindNS = rd.lookupNS, rd.bindNS
		}
	}
	e.setupNS = time.Since(start).Nanoseconds()
	if firstErr != nil {
		e.abort()
		return nil, firstErr
	}
	return e, nil
}

// dialSPMD is one client rank's set-up: repository lookup, SPMDBind, the
// client-side layouts, and a first verified norm call.
func dialSPMD(th rts.Thread, r *core.Router, addr string, in *spmdInputs) (*spmdRank, ready) {
	orb := core.NewORB(r, th, nil)
	repo, err := registry.Open(orb, addr)
	if err != nil {
		return nil, ready{err: err}
	}
	t0 := time.Now()
	ior, err := repo.Lookup(spmdName)
	if err != nil {
		return nil, ready{err: fmt.Errorf("rank %d lookup: %w", th.Rank(), err)}
	}
	t1 := time.Now()
	b, err := orb.SPMDBind(ior, spmdIface())
	if err != nil {
		return nil, ready{err: fmt.Errorf("rank %d bind: %w", th.Rank(), err)}
	}
	rd := ready{}
	if th.Rank() == 0 {
		rd.lookupNS, rd.bindNS = t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()
	}
	if err := b.SetOutDist("scale", 2, spmdClientDist()); err != nil {
		rd.err = err
		return nil, rd
	}
	c := &spmdRank{
		th:     th,
		b:      b,
		scaleX: dseq.New[float64](th, spmdScaleN, spmdClientDist(), dseq.Float64Codec{}),
		normX:  dseq.New[float64](th, spmdNormN, spmdClientDist(), dseq.Float64Codec{}),
	}
	c.fill(c.scaleX, in.scaleX)
	c.fill(c.normX, in.normX)
	if rec := c.call(1, in); rec.fail != opOK {
		rd.err = fmt.Errorf("rank %d: first norm call failed (%d)", th.Rank(), rec.fail)
	}
	return c, rd
}

// mergeRanks joins the two ranks' records of each collective call: the
// call took as long as its slower rank and failed if either rank saw it
// fail. A rank that recorded fewer calls (an aborted phase) leaves the
// rest failed.
func mergeRanks(per [][]opRec) []opRec {
	n := 0
	for _, r := range per {
		n = max(n, len(r))
	}
	out := make([]opRec, n)
	for i := range out {
		for k, r := range per {
			if i >= len(r) {
				out[i].fail = opStalled
				continue
			}
			if k == 0 || r[i].lat > out[i].lat {
				out[i].lat = r[i].lat
			}
			out[i].large, out[i].bytes = r[i].large, r[i].bytes
			if r[i].fail != opOK {
				out[i].fail = r[i].fail
			}
		}
	}
	return out
}
