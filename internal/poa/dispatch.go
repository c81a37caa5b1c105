package poa

import (
	"fmt"
	"sort"

	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// Decision kinds broadcast by thread 0.
const (
	decDispatch byte = 1
	decShutdown byte = 2
)

// collectivePhase runs one round of the dispatch agreement in a single
// broadcast: thread 0 encodes the count and every completed invocation's
// decision (in arrival order, shutdown last) into one length-prefixed
// frame and broadcasts it once; every thread — thread 0 included — decodes
// the frame and dispatches identically. One frame instead of 2+K
// sequential broadcast rounds means agreement latency is one tree depth
// regardless of how many invocations completed in the phase.
func (p *POA) collectivePhase() int {
	poaAgreementPhases.Inc()
	// The agreement collective runs before its requests are decoded, so a
	// non-root thread learns which invocations (and TraceIDs) the phase
	// carried only afterwards. The phase interval is captured up front and
	// its spans recorded post hoc, once per traced request.
	var phaseStart int64
	tracing := obs.DefaultTracer.Enabled()
	if tracing {
		phaseStart = obs.NowNS()
	}
	var frame []byte
	if p.th.Rank() == 0 {
		n := 0
		for _, k := range p.ready {
			if p.gathers[k] != nil {
				n++
			}
		}
		if p.pendingShutdown {
			n++
		}
		e := cdr.GetEncoder(8 + 160*n)
		e.PutULong(uint32(n))
		for _, k := range p.ready {
			g := p.gathers[k]
			delete(p.gathers, k)
			if g == nil {
				continue
			}
			appendDecision(e, g)
		}
		p.ready = p.ready[:0]
		if p.pendingShutdown {
			e.PutOctets(shutdownDecision)
		}
		// The frame is built in a pooled encoder but broadcast as a copy:
		// the chan backend hands buffers to receivers by reference, and the
		// decoded requests on every thread alias the frame for a whole
		// dispatch, so a pooled buffer could be recycled under a reader.
		frame = append([]byte(nil), e.Bytes()...)
		e.Release()
	}
	if p.AgreementDeadline > 0 {
		// Liveness round first: the dissemination barrier transitively
		// waits on every rank, so a dead thread is detected (and blamed)
		// even where the broadcast tree alone would never wait on it — a
		// Bcast leaf's silence is invisible to everyone.
		if err := rts.BarrierDeadline(p.th, p.AgreementDeadline); err != nil {
			p.faultAbort("agreement", err)
			return 0
		}
		var err error
		frame, err = rts.BcastDeadline(p.th, 0, frame, p.AgreementDeadline)
		if err != nil {
			p.faultAbort("agreement", err)
			return 0
		}
	} else {
		frame = rts.Bcast(p.th, 0, frame)
	}
	var phaseEnd int64
	if tracing {
		phaseEnd = obs.NowNS()
	}
	// Decisions alias the frame (GetOctets never copies), which stays alive
	// as long as any decoded request does — DESIGN.md §7 frame ownership.
	d := cdr.GetDecoder(frame)
	n := int(d.GetULong())
	count := 0
	for i := 0; i < n; i++ {
		pay := d.GetOctets()
		if err := d.Err(); err != nil {
			p.faultCollective(fmt.Errorf("poa: corrupt dispatch frame: %w", err))
			break
		}
		var decStart int64
		if tracing {
			decStart = obs.NowNS()
		}
		req, clients, kind, err := decodeDecision(pay)
		if err != nil {
			p.faultCollective(fmt.Errorf("poa: corrupt dispatch decision: %w", err))
			break
		}
		if kind == decShutdown {
			p.shutdown = true
			continue
		}
		var decodeSpan uint64
		if tracing && req.TraceID != 0 {
			// Server-side nesting for this invocation: the decode span hangs
			// under the client's per-attempt send span (req.SpanID crossed
			// the wire for exactly this), the agreement span under the
			// decode, and the broadcast that carried the decision under the
			// agreement.
			rank := int32(p.th.Rank())
			decodeSpan = obs.NewID()
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: decodeSpan, Parent: req.SpanID,
				Layer: obs.LayerPGIOP, Name: "pgiop.decode", Op: req.Operation,
				Rank: rank, Start: decStart, End: obs.NowNS(),
			})
			agreeSpan := obs.NewID()
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: agreeSpan, Parent: decodeSpan,
				Layer: obs.LayerPOA, Name: "poa.agreement", Op: req.Operation,
				Rank: rank, Start: phaseStart, End: phaseEnd,
			})
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: obs.NewID(), Parent: agreeSpan,
				Layer: obs.LayerRTS, Name: "rts.bcast", Op: "agreement",
				Rank: rank, Start: phaseStart, End: phaseEnd,
			})
		}
		p.dispatchSPMD(req, clients, decodeSpan)
		count++
	}
	d.Release()
	return count
}

// shutdownDecision is the one-octet decision payload announcing shutdown.
var shutdownDecision = []byte{decShutdown}

// faultCollective records an unrecoverable failure of the dispatch
// agreement itself and deactivates the adapter through the existing
// shutdown path: a decision frame that does not decode means this thread
// can no longer agree with its siblings on dispatch order, and continuing
// would silently break the §2.1 ordering guarantee. ImplIsReady returns
// after the current phase; the server program observes the cause via
// Fault.
func (p *POA) faultCollective(err error) {
	if p.fault == nil {
		p.fault = err
	}
	p.shutdown = true
}

// appendDecision encodes one dispatch decision, length-prefixed, into the
// agreement frame under construction.
func appendDecision(e *cdr.Encoder, g *gather) {
	var clients []clientInfo
	for rank, r := range g.reqs {
		clients = append(clients, clientInfo{Rank: rank, ReqID: r.ReqID, Addr: r.ReplyAddr})
	}
	sort.Slice(clients, func(a, b int) bool { return clients[a].Rank < clients[b].Rank })
	req := g.reqs[0]
	inner := cdr.GetEncoder(256)
	inner.PutOctet(decDispatch)
	inner.PutOctets(pgiop.EncodeRequest(req))
	inner.PutSeqLen(len(clients))
	for _, c := range clients {
		inner.PutLong(c.Rank)
		inner.PutULong(c.ReqID)
		inner.PutString(c.Addr)
	}
	e.PutOctets(inner.Bytes())
	inner.Release()
}

func decodeDecision(pay []byte) (*pgiop.Request, []clientInfo, byte, error) {
	// Pooled decoder: decoded values alias pay, never the decoder, so
	// releasing it is safe while the request is still in flight.
	d := cdr.GetDecoder(pay)
	defer d.Release()
	kind := d.GetOctet()
	if kind == decShutdown {
		return nil, nil, kind, d.Err()
	}
	req, err := pgiop.DecodeRequest(d.GetOctets())
	if err != nil {
		return nil, nil, kind, err
	}
	n := d.GetSeqLen(4)
	clients := make([]clientInfo, 0, n)
	for i := 0; i < n; i++ {
		clients = append(clients, clientInfo{Rank: d.GetLong(), ReqID: d.GetULong(), Addr: d.GetString()})
	}
	return req, clients, kind, d.Err()
}

// serveSingle services a request for a single object owned by this thread.
// The entry was resolved at routing time; iov is the caller's vectored-send
// scratch (the POA's own for inline dispatch, worker-private under the
// dispatch pool). In pooled mode the servant gets a private context with
// POA unset — single objects never touch the adapter's collective or
// segment state (RegisterSingle rejects distributed arguments), so workers
// share nothing with the owning thread but the concurrency-safe fabric.
//
// Instrumentation wraps the body rather than deferring inside it: this is
// the round-trip hot path, and a capturing defer would cost an allocation
// per request that the CI overhead gate (≤5% allocs/op with tracing off)
// does not grant.
func (p *POA) serveSingle(e *entry, req *pgiop.Request, iov *[2][]byte, pooled bool) {
	start := obs.NowNS()
	var vstart float64
	if p.virtual {
		vstart = p.th.Elapsed()
	}
	poaDispatches.Inc()
	var decodeSpan uint64
	if req.TraceID != 0 && obs.DefaultTracer.Enabled() {
		decodeSpan = obs.NewID()
	}
	failed := p.singleDispatch(e, req, iov, pooled, decodeSpan)
	end := obs.NowNS()
	sec := float64(end-start) / 1e9
	poaDispatchLatency.Observe(sec)
	if p.virtual {
		p.loadLat.Observe(p.th.Elapsed() - vstart)
	} else {
		p.loadLat.Observe(sec)
	}
	poaSLO.Observe(req.Operation, sec, failed)
	if decodeSpan != 0 {
		obs.DefaultTracer.Record(obs.Span{
			Trace: req.TraceID, ID: obs.NewID(), Parent: decodeSpan,
			Layer: obs.LayerPOA, Name: "poa.dispatch", Op: req.Operation,
			Rank: int32(p.th.Rank()), Start: start, End: end,
		})
	}
}

// singleDispatch is serveSingle's body; decodeSpan (0 when untraced) is the
// span ID under which the inline-argument decode records, pre-allocated so
// the wrapper can parent the dispatch span beneath it. The return reports
// whether the dispatch failed (exception sent or undeliverable result) —
// the wrapper's SLO observation.
func (p *POA) singleDispatch(e *entry, req *pgiop.Request, iov *[2][]byte, pooled bool, decodeSpan uint64) bool {
	op, ok := e.iface.Op(req.Operation)
	if !ok {
		if !req.Oneway {
			p.sendException(req.ReplyAddr, req.ReqID, fmt.Sprintf("no operation %s on %s", req.Operation, e.iface.Name))
		}
		return true
	}
	var decStart int64
	if decodeSpan != 0 {
		decStart = obs.NowNS()
	}
	inVals, err := p.decodeInline(op, req.Body)
	if decodeSpan != 0 {
		obs.DefaultTracer.Record(obs.Span{
			Trace: req.TraceID, ID: decodeSpan, Parent: req.SpanID,
			Layer: obs.LayerPGIOP, Name: "pgiop.decode", Op: req.Operation,
			Rank: int32(p.th.Rank()), Start: decStart, End: obs.NowNS(),
		})
	}
	if err != nil {
		if !req.Oneway {
			p.sendException(req.ReplyAddr, req.ReqID, err.Error())
		}
		return true
	}
	var (
		ret  any
		outs []any
		serr error
	)
	if pooled {
		ctx := Context{Thread: p.th, Oneway: req.Oneway}
		ret, outs, serr = e.servant.Invoke(&ctx, op.Name, inVals)
	} else {
		// The reusable context is saved/restored so nested dispatch (a
		// servant calling ProcessRequests mid-computation) cannot corrupt
		// the outer invocation's view; servants must not retain ctx past
		// Invoke.
		saved := p.ctx
		p.ctx = Context{Thread: p.th, POA: p, Oneway: req.Oneway}
		ret, outs, serr = e.servant.Invoke(&p.ctx, op.Name, inVals)
		p.ctx = saved
	}
	if req.Oneway {
		return serr != nil
	}
	if serr != nil {
		p.sendException(req.ReplyAddr, req.ReqID, serr.Error())
		return true
	}
	// The reply body lives in a pooled encoder until the vectored send
	// below returns; the transport does not retain it.
	benc := cdr.GetEncoder(256)
	defer benc.Release()
	body, _, err := p.encodeResults(benc, op, ret, outs, nil, nil, req)
	if err != nil {
		p.sendException(req.ReplyAddr, req.ReqID, err.Error())
		return true
	}
	reply := &pgiop.Reply{ReqID: req.ReqID, Status: pgiop.StatusOK, Body: body}
	hdr := cdr.GetEncoder(128)
	pgiop.AppendReply(hdr, reply)
	iov[0], iov[1] = hdr.Bytes(), reply.Body
	_ = p.r.SendV(nexus.Addr(req.ReplyAddr), iov[:]...)
	iov[0], iov[1] = nil, nil
	hdr.Release()
	return false
}

// decodeInline unmarshals the non-distributed in/inout arguments of a
// request body into the servant argument slots.
func (p *POA) decodeInline(op *core.Operation, body []byte) ([]any, error) {
	inVals := make([]any, len(op.Params))
	// The request frame belongs to this dispatch, so decoded arguments may
	// alias it (zero-copy) — the servant sees stable storage for the whole
	// invocation.
	dec := cdr.GetDecoder(body)
	dec.SetBorrow(true)
	defer dec.Release()
	for i := range op.Params {
		prm := &op.Params[i]
		if prm.Distributed() || prm.Mode == core.Out {
			continue
		}
		v, err := typecode.Unmarshal(dec, prm.Type)
		if err != nil {
			return nil, fmt.Errorf("argument %s: %v", prm.Name, err)
		}
		inVals[i] = v
	}
	return inVals, nil
}

// dispatchSPMD runs one collective invocation on this thread. parentSpan is
// the invocation's pgiop.decode span on this thread (0 when untraced): the
// dispatch span nests under it, and the collection/agreement collectives
// under the dispatch.
func (p *POA) dispatchSPMD(req *pgiop.Request, clients []clientInfo, parentSpan uint64) {
	start := obs.NowNS()
	poaDispatches.Inc()
	traced := parentSpan != 0
	var dispSpan uint64
	if traced {
		dispSpan = obs.NewID()
	}
	failed := false
	defer func() {
		end := obs.NowNS()
		sec := float64(end-start) / 1e9
		poaDispatchLatency.Observe(sec)
		poaSLO.Observe(req.Operation, sec, failed)
		if traced {
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: dispSpan, Parent: parentSpan,
				Layer: obs.LayerPOA, Name: "poa.dispatch", Op: req.Operation,
				Rank: int32(p.th.Rank()), Start: start, End: end,
			})
		}
	}()
	rank, size := p.th.Rank(), p.th.Size()
	e := p.objects[req.ObjectKey]
	fail := func(msg string) {
		failed = true
		if rank == 0 && !req.Oneway {
			for _, c := range clients {
				p.sendException(c.Addr, c.ReqID, msg)
			}
		}
	}
	if e == nil {
		fail(fmt.Sprintf("no object %q", req.ObjectKey))
		return
	}
	op, ok := e.iface.Op(req.Operation)
	if !ok {
		fail(fmt.Sprintf("no operation %s on %s", req.Operation, e.iface.Name))
		return
	}
	inVals, err := p.decodeInline(op, req.Body)
	if err != nil {
		fail(err.Error())
		return
	}
	// Receive distributed in arguments: segments were sent directly to
	// this thread by the client threads owning overlapping elements. With a
	// deadline in force a failed collection is recorded rather than
	// returned: the agreement step below must still run so every thread
	// reaches the same verdict.
	var collectErr error
	var collectStart int64
	if traced && len(req.DistIns) > 0 {
		collectStart = obs.NowNS()
	}
	for _, spec := range req.DistIns {
		i := int(spec.Param)
		if i < 0 || i >= len(op.Params) || !op.Params[i].Distributed() {
			fail(fmt.Sprintf("request names non-distributed parameter %d", i))
			return
		}
		prm := &op.Params[i]
		serverLayout := prm.ServerDist.Layout(int(spec.N), size)
		holder := dseq.NewByTC(p.th, serverLayout, prm.Type.Elem)
		if err := p.collectSegments(req, spec, holder, serverLayout); err != nil {
			collectErr = err
			break
		}
		inVals[i] = holder
	}
	if traced && len(req.DistIns) > 0 {
		obs.DefaultTracer.Record(obs.Span{
			Trace: req.TraceID, ID: obs.NewID(), Parent: dispSpan,
			Layer: obs.LayerPOA, Name: "poa.collect", Op: req.Operation,
			Rank: int32(rank), Start: collectStart, End: obs.NowNS(),
		})
	}
	if deadline := p.effDeadline(req); deadline > 0 && size > 1 && len(req.DistIns) > 0 {
		// A thread whose collection timed out must not diverge from
		// siblings whose collection succeeded: agree on one verdict before
		// anyone enters the servant (see ftAgree).
		var agreeStart int64
		if traced {
			agreeStart = obs.NowNS()
		}
		ok, failRank, aerr := p.ftAgree(collectErr == nil, deadline)
		if traced {
			obs.DefaultTracer.Record(obs.Span{
				Trace: req.TraceID, ID: obs.NewID(), Parent: dispSpan,
				Layer: obs.LayerRTS, Name: "rts.allreduce", Op: "collect-agree",
				Rank: int32(rank), Start: agreeStart, End: obs.NowNS(),
			})
		}
		if aerr != nil {
			failed = true
			p.faultAbort("collect-agree", aerr)
			return
		}
		if !ok {
			if collectErr == nil {
				collectErr = fmt.Errorf("collective aborted: server thread %d failed its argument collection", failRank)
			}
			fail(collectErr.Error())
			return
		}
	} else if collectErr != nil {
		fail(collectErr.Error())
		return
	}
	saved := p.ctx
	p.ctx = Context{Thread: p.th, POA: p, Oneway: req.Oneway}
	ret, outs, serr := e.servant.Invoke(&p.ctx, op.Name, inVals)
	p.ctx = saved
	if req.Oneway {
		return
	}
	if serr != nil {
		fail(serr.Error())
		return
	}
	benc := cdr.GetEncoder(256)
	defer benc.Release()
	body, outLens, err := p.encodeResults(benc, op, ret, outs, clients, req.DistOuts, req)
	if err != nil {
		fail(err.Error())
		return
	}
	if rank == 0 {
		hdr := cdr.GetEncoder(128)
		for _, c := range clients {
			reply := &pgiop.Reply{ReqID: c.ReqID, Status: pgiop.StatusOK, Body: body, OutLens: outLens}
			hdr.Reset()
			pgiop.AppendReply(hdr, reply)
			_ = p.sendV2(nexus.Addr(c.Addr), hdr.Bytes(), reply.Body)
		}
		hdr.Release()
	}
}

// collectSegments consumes the in-direction segments of one distributed
// argument until this thread's share is complete. When the request (or the
// adapter) carries a deadline, the wait is bounded: expiry cleans up the
// key and reports which client ranks still owed elements, and the adapter
// stays dispatchable.
func (p *POA) collectSegments(req *pgiop.Request, spec pgiop.DistInSpec, holder dseq.Distributed, serverLayout dist.Layout) error {
	param := spec.Param
	rank := p.th.Rank()
	need := serverLayout.Count(rank)
	k := segKey{req.BindingID, req.SeqNo, param}
	deadline := p.effDeadline(req)
	var until float64
	var gotBy map[int]int
	if deadline > 0 {
		until = p.th.Elapsed() + deadline
		gotBy = map[int]int{}
	}
	got := 0
	for got < need {
		if len(p.segs[k]) == 0 {
			if deadline <= 0 {
				if !p.drainBlocking() {
					return fmt.Errorf("transport closed while receiving argument %d", param)
				}
				continue
			}
			p.drain()
			if len(p.segs[k]) == 0 {
				if p.th.Elapsed() >= until {
					delete(p.segs, k)
					return segTimeout(rank, spec, serverLayout, gotBy, got, need)
				}
				p.idleWait()
			}
			continue
		}
		a := p.segs[k][0]
		p.segs[k] = p.segs[k][1:]
		n, runs, err := core.ApplySegment(holder, a, need-got, p.runScratch)
		p.runScratch = runs[:0]
		if err != nil {
			return fmt.Errorf("argument %d: %v", param, err)
		}
		got += n
		if gotBy != nil {
			gotBy[int(a.Sender)] += n
		}
	}
	delete(p.segs, k)
	return nil
}

// encodeResults marshals the inline reply body (return value + non-
// distributed outs) into enc — owned by the caller, which must keep it
// alive until the reply has been sent — and, for SPMD dispatch, ships
// distributed out segments directly to the client threads.
func (p *POA) encodeResults(enc *cdr.Encoder, op *core.Operation, ret any, outs []any,
	clients []clientInfo, distOuts []pgiop.DistOutSpec, req *pgiop.Request) ([]byte, []pgiop.OutLen, error) {

	want := 0
	for i := range op.Params {
		if op.Params[i].Mode != core.In {
			want++
		}
	}
	if len(outs) != want {
		return nil, nil, fmt.Errorf("servant returned %d out values for %d out parameters", len(outs), want)
	}
	if op.Result != nil {
		if err := typecode.Marshal(enc, op.Result, ret); err != nil {
			return nil, nil, fmt.Errorf("return value: %v", err)
		}
	}
	var outLens []pgiop.OutLen
	outIdx := 0
	for i := range op.Params {
		prm := &op.Params[i]
		if prm.Mode == core.In {
			continue
		}
		val := outs[outIdx]
		outIdx++
		if !prm.Distributed() {
			if err := typecode.Marshal(enc, prm.Type, val); err != nil {
				return nil, nil, fmt.Errorf("out value %s: %v", prm.Name, err)
			}
			continue
		}
		holder, ok := val.(dseq.Distributed)
		if !ok {
			return nil, nil, fmt.Errorf("servant returned %T for distributed out %s", val, prm.Name)
		}
		tmpl := prm.ClientDist
		for _, s := range distOuts {
			if int(s.Param) == i {
				tmpl = s.Tmpl
			}
		}
		clientLayout := tmpl.Layout(holder.GlobalLen(), int(req.ClientSize))
		// Same-shape replies reuse the cached transfer schedule, and the
		// per-destination moves fan out from the worker pool: each client
		// thread's segment stream is an independent (binding, seqno, param)
		// key, so reordering sends across destinations is safe. Each move
		// streams as bounded chunks (core.StreamMove), encode overlapping
		// send, so a large result never stages whole in one encoder.
		sched := dist.Cached(holder.DLayout(), clientLayout)
		outMoves := sched.From(p.th.Rank())
		safe := p.r.ConcurrentSendSafe()
		elemSize := holder.ElemSizeHint()
		workers, fanDone := core.FanWidth(p.TransferWorkers, safe, outMoves)
		chunk, streamDone := core.StreamChunk(p.StreamChunkBytes, safe, len(outMoves), core.MoveBytes(outMoves, elemSize))
		param := i
		err := core.FanOutMoves(workers, outMoves, func(mv *dist.Move, iov *[2][]byte) error {
			// The chunk-stream header is per destination here: each client
			// thread matches out-segments by its own request ID.
			spec := core.StreamSpec{
				BindingID: req.BindingID,
				SeqNo:     req.SeqNo,
				ReqID:     clients[mv.To].ReqID,
				Param:     int32(param),
				Dir:       pgiop.DirOut,
				Sender:    int32(p.th.Rank()),
			}
			serr := core.StreamMove(p.r, nexus.Addr(clients[mv.To].Addr), holder, mv, spec, chunk, elemSize, safe, iov)
			if serr != nil {
				return fmt.Errorf("out segment to client %d: %v", mv.To, serr)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		fanDone()
		streamDone()
		outLens = append(outLens, pgiop.OutLen{Param: int32(i), N: int32(holder.GlobalLen()), Layout: holder.DLayout()})
	}
	return enc.Bytes(), outLens, nil
}
