package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/obs"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// ORB is the client-side Object Request Broker state of one computing
// thread. An SPMD client creates one ORB per thread (each wrapping that
// thread's nexus endpoint and sharing the program's rts communicator); a
// single client passes a nil communicator.
//
// ORB methods must be called from the owning thread. Replies and
// distributed-argument segments are processed on the same thread while it
// waits on (or polls) a future — the single-threaded model of NexusLite.
type ORB struct {
	r     *Router
	comm  rts.Comm // nil for a single (non-SPMD) client
	local *LocalTable

	mu      sync.Mutex // guards pending/backoff across resolve/pump reentry
	pending map[uint32]*pendingReq
	backoff []*pendingReq // timed-out retryable requests awaiting re-issue
	// inflight counts pending two-way requests per server connection
	// (keyed by the server's thread-0 address, the peer all requests of a
	// binding are issued to). It is the pipelining ledger: with the
	// multiplexed transport many requests ride one connection back to
	// back, and this table — owned by o.mu alongside pending itself — is
	// what deadline sweeps, cancels and transport failures decrement so
	// depth never drifts from reality.
	inflight map[string]int
	nextReq  uint32
	nextBind int

	// pumpFn is the one pump closure shared by every cell this ORB mints
	// (a per-invocation closure would allocate).
	pumpFn func(block bool)
	// sendIov is the scratch buffer list for two-buffer vectored sends.
	// Safe as a field because ORB methods run on the owning thread only.
	sendIov [2][]byte
	// runScratch is reused across segment validations (one per incoming
	// out-argument segment); same owning-thread discipline as sendIov.
	runScratch []dist.Run

	// TransferWorkers is the fan-out width for distributed-argument
	// segment sends: when > 0 it pins the width — up to that many
	// goroutines encode and send the per-destination moves of one
	// argument, when the fabric's sends are safe for concurrent use (see
	// Router.ConcurrentSendSafe). 0 (the default) self-tunes the width per
	// destination count and payload size from observed transfer times
	// (core.FanWidth); negative forces the serial single-threaded path.
	TransferWorkers int

	// StreamChunkBytes bounds the payload bytes per ArgStream frame of one
	// distributed-argument move: when > 0 it pins the chunk size, 0 (the
	// default) self-tunes it per destination count and payload size on
	// concurrency-safe fabrics (fixed default size elsewhere), and negative
	// disables chunking — each move travels as a single staged frame, the
	// pre-streaming behavior (core.StreamChunk).
	StreamChunkBytes int
}

// NewORB creates the ORB state for one computing thread. r is the thread's
// frame router (shared with a POA when the program is also a server); comm
// is the thread's run-time-system communicator (nil for single clients);
// table is the process-local object table enabling the co-located
// direct-call shortcut (may be nil).
func NewORB(r *Router, comm rts.Comm, table *LocalTable) *ORB {
	o := &ORB{r: r, comm: comm, local: table, pending: map[uint32]*pendingReq{}, inflight: map[string]int{}}
	o.pumpFn = func(block bool) { o.pump(block) }
	return o
}

// sendV2 sends hdr+body as one vectored frame through the reusable scratch
// buffer list, so the variadic argument slice is not allocated per call.
func (o *ORB) sendV2(to nexus.Addr, hdr, body []byte) error {
	o.sendIov[0], o.sendIov[1] = hdr, body
	err := o.r.SendV(to, o.sendIov[:]...)
	o.sendIov[0], o.sendIov[1] = nil, nil
	return err
}

// Router returns the thread's frame router.
func (o *ORB) Router() *Router { return o.r }

func (o *ORB) rank() int {
	if o.comm == nil {
		return 0
	}
	return o.comm.Rank()
}

func (o *ORB) size() int {
	if o.comm == nil {
		return 1
	}
	return o.comm.Size()
}

// pendingReq tracks one in-flight invocation issued by this thread.
type pendingReq struct {
	cell    *future.Cell
	op      *Operation
	reply   *pgiop.Reply
	binding string
	seqNo   uint32
	server0 string // thread-0 address, for cancellation and resends
	// Distributed out-argument state, keyed by parameter index.
	holders map[int]dseq.Distributed
	tmpls   map[int]dist.Template
	need    map[int]int
	got     map[int]int
	buf     []*pgiop.ArgStream // segments that arrived before the reply

	// Deadline and retry state (zero when the binding sets no deadline).
	deadline   float64 // per-attempt budget, seconds; 0 = unbounded
	deadlineAt float64 // ORB-clock instant the current attempt expires
	resendAt   float64 // when parked in o.backoff: instant to re-issue
	attempt    int     // attempts issued so far (first send = 1)
	policy     RetryPolicy
	rng        *rand.Rand     // per-request jitter stream (nil unless retryable)
	req        *pgiop.Request // retained for re-encoding resends (nil unless retryable)
	serverSize int
	// gotBy counts out-segment elements by sending server rank, for
	// attributing a partial transfer to the ranks that went silent.
	gotBy map[int]int

	// Trace state. trace/span are zero when tracing was off at issue time;
	// trace is the invocation's TraceID (stable across retries) and span the
	// stub.invoke root span under which every attempt nests. issuedNS is the
	// root span's start — always captured, since the latency histogram wants
	// it whether or not tracing is on.
	trace    uint64
	span     uint64
	issuedNS int64
}

// retryable reports whether this request may be re-issued (see RetryPolicy).
func (p *pendingReq) retryable() bool { return p.req != nil }

// resolve finishes a claimed (or never-registered) request: observes the
// latency histogram, records the stub.invoke root span when the invocation
// was traced, and resolves the cell. Every resolution path of a two-way
// request funnels through here *after* winning the claim, which is also what
// keeps late replies span-silent: by the time a straggler arrives the claim
// fails, no resolver runs, and nothing records.
func (o *ORB) resolve(p *pendingReq, vals []any, err error) {
	end := obs.NowNS()
	sec := float64(end-p.issuedNS) / 1e9
	orbLatency.Observe(sec)
	orbSLO.Observe(p.op.Name, sec, err != nil)
	if p.trace != 0 {
		// Mark before recording the root: the root span completes the trace,
		// and the retention decision must already see the error.
		if err != nil {
			obs.DefaultTracer.MarkTrace(p.trace, obs.RetainError)
		}
		obs.DefaultTracer.Record(obs.Span{
			Trace: p.trace, ID: p.span, Layer: obs.LayerStub,
			Name: "stub.invoke", Op: p.op.Name, Rank: int32(o.rank()),
			Start: p.issuedNS, End: end,
		})
	}
	p.cell.Resolve(vals, err)
}

// claim atomically removes the pending entry for id, returning it — or nil
// when another path (cancel, timeout sweep, transport failure) already
// claimed it. Every resolution path claims before resolving, so a cell is
// resolved exactly once even when a late reply races a timeout or cancel;
// and because request IDs are never reused, a reply to a superseded attempt
// finds nothing to claim and is discarded here.
func (o *ORB) claim(id uint32) *pendingReq {
	o.mu.Lock()
	p := o.pending[id]
	if p != nil {
		delete(o.pending, id)
		o.untrackLocked(p)
	}
	o.mu.Unlock()
	return p
}

// trackLocked and untrackLocked maintain the per-connection in-flight
// ledger; callers hold o.mu and have just added/removed p in o.pending.
// trackLocked returns the new depth for the histogram.
func (o *ORB) trackLocked(p *pendingReq) int {
	o.inflight[p.server0]++
	return o.inflight[p.server0]
}

func (o *ORB) untrackLocked(p *pendingReq) {
	if n := o.inflight[p.server0]; n > 1 {
		o.inflight[p.server0] = n - 1
	} else {
		delete(o.inflight, p.server0)
	}
}

// Inflight reports the number of pending two-way requests currently issued
// to the given server thread-0 address — the pipeline depth on that
// connection as seen from this ORB.
func (o *ORB) Inflight(server0 string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inflight[server0]
}

// now reads the ORB's clock: the communicator's virtual clock when it has
// one, wall time otherwise — the same convention as the RTS deadline layer.
func (o *ORB) now() float64 {
	if t, ok := o.comm.(interface{ Elapsed() float64 }); ok {
		return t.Elapsed()
	}
	return time.Since(orbEpoch).Seconds()
}

var orbEpoch = time.Now()

// pumpQuantum is the idle sleep between non-blocking receive polls while
// deadlines are armed; it bounds how late past its instant a timeout fires.
const pumpQuantum = 200e-6

func (o *ORB) idle(seconds float64) {
	if t, ok := o.comm.(interface{ Sleep(float64) }); ok {
		t.Sleep(seconds)
		return
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
}

// Invoke performs a blocking invocation on a binding: it returns when the
// request has been fully processed by the server. Results are ordered
// [return value (if non-void), out/inout parameters in declaration order];
// distributed out values are the holders passed in args.
func (b *Binding) Invoke(op string, args []any) ([]any, error) {
	cell, err := b.InvokeNB(op, args)
	if err != nil {
		return nil, err
	}
	return CellResults(cell)
}

// CellResults waits for a cell and returns its result values.
func CellResults(cell *future.Cell) ([]any, error) { return cell.Values() }

// InvokeNB performs a non-blocking invocation: it returns immediately after
// the request has been sent, with a cell whose futures resolve when the
// reply (and all distributed out segments) arrive.
//
// args has one entry per parameter of the operation, in declaration order:
//
//	in/inout non-distributed — the Go value (per the typecode mapping)
//	in        distributed    — a dseq.Distributed with the argument data
//	out       non-distributed — ignored (pass nil)
//	out       distributed    — a dseq.Distributed holder; pass the desired
//	                           client-side layout via SetOutDist or rely on
//	                           the parameter's default
//
// For an SPMD binding the call is collective: every client thread must
// invoke with its own portion of each distributed argument.
func (b *Binding) InvokeNB(op string, args []any) (*future.Cell, error) {
	o := b.orb
	opDef, ok := b.iface.Op(op)
	if !ok {
		return nil, fmt.Errorf("core: interface %s has no operation %s", b.iface.Name, op)
	}
	if len(args) != len(opDef.Params) {
		return nil, fmt.Errorf("core: %s.%s takes %d arguments, got %d", b.iface.Name, op, len(opDef.Params), len(args))
	}
	if opDef.HasDistributed() && !b.ior.SPMD {
		return nil, fmt.Errorf("core: %s.%s uses distributed arguments on a non-SPMD object", b.iface.Name, op)
	}

	// Co-located direct call: bypass transport and marshaling entirely.
	if b.localObj != nil && !opDef.HasDistributed() {
		return b.localObj.call(opDef, args)
	}

	cell := future.NewCell()
	p := &pendingReq{
		cell:       cell,
		op:         opDef,
		binding:    b.id,
		seqNo:      b.seq,
		server0:    b.ior.Addrs[0],
		deadline:   b.deadline,
		policy:     b.retry,
		serverSize: b.ior.ServerSize,
	}

	req := &pgiop.Request{
		BindingID:  b.id,
		SeqNo:      b.seq,
		ClientRank: int32(o.rank()),
		ClientSize: int32(o.size()),
		ReplyAddr:  string(o.r.Addr()),
		ObjectKey:  b.ior.Key,
		Operation:  op,
		Oneway:     opDef.Oneway,
		DeadlineMS: deadlineMS(b.deadline),
	}
	b.seq++
	orbRequests.Inc()
	p.issuedNS = obs.NowNS()
	if obs.DefaultTracer.Enabled() {
		// Root trace context for this invocation: the TraceID every rank and
		// layer will share, the stub span every attempt nests under, and the
		// first attempt's send span (fresh per retry — see resend). A group
		// binding pins one TraceID across member attempts (forceTrace), so a
		// failover reads as a single timeline in the flight recorder.
		if b.forceTrace != 0 {
			p.trace = b.forceTrace
		} else {
			p.trace = obs.NewID()
		}
		p.span = obs.NewID()
		req.TraceID = p.trace
		req.SpanID = obs.NewID()
	}

	// Marshal inline (non-distributed) in/inout arguments into a pooled
	// encoder: req.Body aliases its buffer, which stays valid through the
	// vectored send below and is recycled when InvokeNB returns.
	enc := cdr.GetEncoder(256)
	defer enc.Release()
	type distIn struct {
		param  int
		holder dseq.Distributed
		server dist.Layout
	}
	var distIns []distIn
	for i := range opDef.Params {
		prm := &opDef.Params[i]
		switch {
		case prm.Distributed() && prm.Mode == In:
			holder, ok := args[i].(dseq.Distributed)
			if !ok {
				return nil, fmt.Errorf("core: %s argument %d must be a distributed sequence, got %T", op, i, args[i])
			}
			n := holder.GlobalLen()
			if bound := prm.Type.Bound; bound > 0 && n > bound {
				return nil, fmt.Errorf("core: %s argument %d length %d exceeds bound %d", op, i, n, bound)
			}
			sl := prm.ServerDist.Layout(n, b.ior.ServerSize)
			req.DistIns = append(req.DistIns, pgiop.DistInSpec{
				Param: int32(i), N: int32(n), Layout: holder.DLayout(),
			})
			distIns = append(distIns, distIn{param: i, holder: holder, server: sl})
		case prm.Distributed() && prm.Mode == Out:
			holder, ok := args[i].(dseq.Distributed)
			if !ok {
				return nil, fmt.Errorf("core: %s out argument %d must be a distributed holder, got %T", op, i, args[i])
			}
			tmpl := b.outDist(op, i, prm)
			req.DistOuts = append(req.DistOuts, pgiop.DistOutSpec{Param: int32(i), Tmpl: tmpl})
			if p.holders == nil {
				// Most invocations have no distributed out arguments;
				// allocate the tracking maps only when one appears.
				p.holders = map[int]dseq.Distributed{}
				p.tmpls = map[int]dist.Template{}
				p.need = map[int]int{}
				p.got = map[int]int{}
			}
			p.holders[i] = holder
			p.tmpls[i] = tmpl
		case prm.Mode == In || prm.Mode == InOut:
			if err := typecode.Marshal(enc, prm.Type, args[i]); err != nil {
				return nil, fmt.Errorf("core: %s argument %d (%s): %w", op, i, prm.Name, err)
			}
		}
	}
	req.Body = enc.Bytes()

	// Retry eligibility (see RetryPolicy): when armed, the request is
	// retained for re-encoding — with the Body copied out of the pooled
	// encoder, which is recycled when InvokeNB returns.
	if b.retry.attempts() > 1 && opDef.Idempotent && !opDef.Oneway &&
		len(req.DistIns) == 0 && !b.spmd && b.deadline > 0 {
		kept := *req
		kept.Body = append([]byte(nil), req.Body...)
		p.req = &kept
		p.rng = rand.New(rand.NewSource(int64(b.retry.JitterSeed) + int64(b.seq)))
	}

	o.mu.Lock()
	o.nextReq++
	req.ReqID = o.nextReq
	depth := 0
	if !opDef.Oneway {
		o.pending[req.ReqID] = p
		depth = o.trackLocked(p)
	}
	o.mu.Unlock()
	if depth > 0 {
		orbPipelineDepth.Observe(float64(depth))
	}
	p.attempt = 1
	if p.deadline > 0 && !opDef.Oneway {
		p.deadlineAt = o.now() + p.deadline
	}

	// Header goes to server thread 0 (the collectivity point). The request
	// header and the marshaled body travel as one vectored frame — the body
	// is never copied into a framing buffer.
	err := o.sendRequest(nexus.Addr(b.ior.Addrs[0]), req, p, false)
	if err != nil {
		if p.retryable() {
			// A failed send is the easiest loss to retry: park the request
			// for backoff instead of failing the invocation.
			if q := o.claim(req.ReqID); q != nil {
				o.park(q)
				cell.SetPump(o.pumpFn)
				return cell, nil
			}
		}
		o.dropPending(req.ReqID)
		return nil, fmt.Errorf("core: %s: %w", op, err)
	}

	// Distributed in arguments: ship this thread's segments directly to
	// the server threads that own them — in parallel across client
	// threads, the ORB optimization of [KG97].
	for _, di := range distIns {
		if err := o.sendSegments(b, req, di.param, di.holder, di.server); err != nil {
			o.dropPending(req.ReqID)
			return nil, err
		}
	}

	if opDef.Oneway {
		cell.Resolve(nil, nil)
		return cell, nil
	}
	cell.SetPump(o.pumpFn)
	return cell, nil
}

// sendRequest encodes and ships one request attempt as a vectored frame.
// When the invocation is traced it records the per-attempt ORB send span
// (ID = req.SpanID, the parent the server nests under) with the pgiop
// encode span inside it.
func (o *ORB) sendRequest(to nexus.Addr, req *pgiop.Request, p *pendingReq, resend bool) error {
	traced := p.trace != 0
	var sendStart, encStart, encEnd int64
	if traced {
		sendStart = obs.NowNS()
	}
	hdr := cdr.GetEncoder(128)
	if traced {
		encStart = obs.NowNS()
	}
	pgiop.AppendRequest(hdr, req)
	if traced {
		encEnd = obs.NowNS()
	}
	err := o.sendV2(to, hdr.Bytes(), req.Body)
	hdr.Release()
	if traced {
		end := obs.NowNS()
		name := "orb.send"
		if resend {
			name = "orb.resend"
		}
		rank := int32(o.rank())
		obs.DefaultTracer.Record(obs.Span{
			Trace: p.trace, ID: req.SpanID, Parent: p.span,
			Layer: obs.LayerORB, Name: name, Op: p.op.Name, Rank: rank,
			Start: sendStart, End: end,
		})
		obs.DefaultTracer.Record(obs.Span{
			Trace: p.trace, ID: obs.NewID(), Parent: req.SpanID,
			Layer: obs.LayerPGIOP, Name: "pgiop.encode", Rank: rank,
			Start: encStart, End: encEnd,
		})
	}
	return err
}

// deadlineMS converts a seconds deadline to the wire's millisecond field.
func deadlineMS(seconds float64) uint32 {
	if seconds <= 0 {
		return 0
	}
	ms := seconds * 1000
	if ms < 1 {
		return 1
	}
	if ms > float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// park schedules a claimed retryable request for re-issue after the
// policy's exponential backoff.
func (o *ORB) park(p *pendingReq) {
	o.parkAfter(p, p.policy.backoff(p.attempt, p.rng))
}

// parkAfter schedules a claimed retryable request for re-issue after an
// explicit delay — the server's shed hint when one arrived, the policy
// backoff otherwise.
func (o *ORB) parkAfter(p *pendingReq, delay float64) {
	p.resendAt = o.now() + delay
	p.deadlineAt = 0
	o.mu.Lock()
	o.backoff = append(o.backoff, p)
	o.mu.Unlock()
}

// ErrCancelled resolves futures of invocations withdrawn with Cancel.
var ErrCancelled = errors.New("core: request cancelled")

// Cancel withdraws a pending non-blocking invocation: a CancelRequest is
// sent to the server (which drops the request if it has not been
// dispatched yet) and the invocation's futures resolve with ErrCancelled.
// It reports whether the cell belonged to a pending invocation of this ORB.
func (o *ORB) Cancel(cell *future.Cell) bool {
	o.mu.Lock()
	var id uint32
	var p *pendingReq
	for reqID, pr := range o.pending {
		if pr.cell == cell {
			id, p = reqID, pr
			break
		}
	}
	if p != nil {
		delete(o.pending, id)
		o.untrackLocked(p)
	} else {
		// The invocation may be parked awaiting a retry rather than in
		// flight; withdrawing it then is purely local.
		for i, pr := range o.backoff {
			if pr.cell == cell {
				p = pr
				o.backoff = append(o.backoff[:i], o.backoff[i+1:]...)
				break
			}
		}
	}
	o.mu.Unlock()
	if p == nil {
		return false
	}
	msg := pgiop.EncodeCancelRequest(&pgiop.CancelRequest{BindingID: p.binding, SeqNo: p.seqNo})
	_ = o.r.Send(nexus.Addr(p.server0), msg) // best effort
	orbCancels.Inc()
	o.resolve(p, nil, ErrCancelled)
	return true
}

func (o *ORB) dropPending(id uint32) {
	o.mu.Lock()
	if p, ok := o.pending[id]; ok {
		delete(o.pending, id)
		o.untrackLocked(p)
	}
	o.mu.Unlock()
}

// sendSegments ships one distributed in-argument's local elements to the
// owning server threads. The exchange schedule comes from the process-wide
// cache (repeated invocations with the same shapes skip construction); the
// per-destination moves fan out across a worker width that is either
// pinned by TransferWorkers or tuned online (core.FanWidth), and each move
// streams as bounded chunks sized by StreamChunkBytes / core.StreamChunk —
// encode of chunk k+1 overlapping the send of chunk k, so no move ever
// stages its whole payload in one encoder.
func (o *ORB) sendSegments(b *Binding, req *pgiop.Request, param int, holder dseq.Distributed, server dist.Layout) error {
	sched := dist.Cached(holder.DLayout(), server)
	moves := sched.From(o.rank())
	safe := o.r.ConcurrentSendSafe()
	elemSize := holder.ElemSizeHint()
	workers, done := FanWidth(o.TransferWorkers, safe, moves)
	chunk, streamDone := StreamChunk(o.StreamChunkBytes, safe, len(moves), MoveBytes(moves, elemSize))
	// Only scalar stream-key fields are captured, not req itself: the
	// closure outlives the frame (worker goroutines), and capturing req
	// would force every InvokeNB's request header to the heap — including
	// invocations with no distributed arguments at all.
	spec := StreamSpec{
		BindingID: req.BindingID,
		SeqNo:     req.SeqNo,
		Param:     int32(param),
		Dir:       pgiop.DirIn,
		Sender:    int32(o.rank()),
	}
	err := FanOutMoves(workers, moves, func(m *dist.Move, iov *[2][]byte) error {
		err := StreamMove(o.r, nexus.Addr(b.ior.Addrs[m.To]), holder, m, spec, chunk, elemSize, safe, iov)
		if err != nil {
			return fmt.Errorf("core: argument %d segment to thread %d: %w", param, m.To, err)
		}
		return nil
	})
	if err == nil {
		done()
		streamDone()
	}
	return err
}

// pump processes incoming client-bound messages on the client thread — the
// progress function behind future resolution. While any pending invocation
// has a deadline (or a retry is parked for re-issue), a blocking pump never
// parks in the transport's blocking receive: it alternates non-blocking
// polls with the timeout sweep so expiry fires on time.
func (o *ORB) pump(block bool) {
	for {
		timed := o.hasTimed()
		if !timed && block {
			// No deadline armed: the original blocking receive.
			m, ok, err := o.r.RecvClient(true)
			if err != nil {
				o.failAll(err)
				return
			}
			if ok {
				o.handleMsg(m)
			}
			return
		}
		m, ok, err := o.r.RecvClient(false)
		if err != nil {
			o.failAll(err)
			return
		}
		if ok {
			o.handleMsg(m)
			return
		}
		progress := false
		if timed {
			progress = o.sweep()
		}
		if progress || !block {
			return
		}
		o.idle(pumpQuantum)
	}
}

// hasTimed reports whether any in-flight request carries a deadline or any
// retry is parked for re-issue.
func (o *ORB) hasTimed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.backoff) > 0 {
		return true
	}
	for _, p := range o.pending {
		if p.deadlineAt > 0 {
			return true
		}
	}
	return false
}

// sweep fires expired deadlines and due resends, reporting whether it made
// progress (resolved or re-issued at least one request). Actions are
// collected under the lock and performed outside it, since resolving a cell
// or sending a frame must not hold o.mu.
func (o *ORB) sweep() bool {
	now := o.now()
	var expired, due []*pendingReq
	o.mu.Lock()
	for id, p := range o.pending {
		if p.deadlineAt > 0 && now >= p.deadlineAt {
			// Claim under this same lock hold: a late reply arriving after
			// the sweep finds no entry and is discarded.
			delete(o.pending, id)
			o.untrackLocked(p)
			expired = append(expired, p)
		}
	}
	if len(o.backoff) > 0 {
		kept := o.backoff[:0]
		for _, p := range o.backoff {
			if now >= p.resendAt {
				due = append(due, p)
			} else {
				kept = append(kept, p)
			}
		}
		o.backoff = kept
	}
	o.mu.Unlock()

	for _, p := range expired {
		orbTimeouts.Inc()
		if p.retryable() && p.attempt < p.policy.attempts() {
			o.park(p)
		} else {
			o.resolve(p, nil, o.deadlineError(p))
		}
	}
	for _, p := range due {
		o.resend(p)
	}
	return len(expired)+len(due) > 0
}

// resend re-issues a parked retryable request as a fresh attempt with a
// fresh request ID, so any straggler reply or segment addressed to the old
// ID can never satisfy the new attempt.
func (o *ORB) resend(p *pendingReq) {
	p.reply = nil
	p.buf = nil
	p.resendAt = 0
	for k := range p.got {
		delete(p.got, k)
	}
	for k := range p.gotBy {
		delete(p.gotBy, k)
	}
	o.mu.Lock()
	o.nextReq++
	p.req.ReqID = o.nextReq
	o.pending[p.req.ReqID] = p
	depth := o.trackLocked(p)
	o.mu.Unlock()
	orbPipelineDepth.Observe(float64(depth))
	p.attempt++
	p.deadlineAt = o.now() + p.deadline
	orbRetries.Inc()
	if p.trace != 0 {
		// Same TraceID, fresh per-attempt SpanID: a straggler span from the
		// superseded attempt can never masquerade as this one's.
		p.req.SpanID = obs.NewID()
		obs.DefaultTracer.MarkTrace(p.trace, obs.RetainRetry)
	}

	err := o.sendRequest(nexus.Addr(p.server0), p.req, p, true)
	if err != nil {
		if q := o.claim(p.req.ReqID); q != nil {
			if p.attempt < p.policy.attempts() {
				o.park(q)
			} else {
				o.resolve(q, nil, &InvokeError{
					Op: p.op.Name, Attempts: p.attempt, Stage: "reply",
					MissingRanks: []int{0}, Err: err,
				})
			}
		}
	}
}

// deadlineError builds the rank-attributed failure for an expired request.
// Before the reply, server thread 0 (the collectivity point) is the silent
// party; after it, the exchange schedule says which server ranks still owed
// this thread out-argument elements.
func (o *ORB) deadlineError(p *pendingReq) error {
	ie := &InvokeError{Op: p.op.Name, Attempts: p.attempt, Err: ErrDeadline}
	if p.reply == nil {
		ie.Stage = "reply"
		ie.MissingRanks = []int{0}
		return ie
	}
	ie.Stage = "out-segments"
	// gotBy aggregates received elements by sending rank across all out
	// parameters, so the expectation is aggregated the same way: the total
	// each server rank owes this thread over every distributed out
	// parameter of the reply.
	expect := map[int]int{}
	me := o.rank()
	for param := range p.need {
		n, ok := replyOutLen(p.reply, param)
		if !ok {
			continue
		}
		prm := &p.op.Params[param]
		sched := dist.Cached(prm.ServerDist.Layout(n, p.serverSize), p.tmpls[param].Layout(n, o.size()))
		for s := 0; s < p.serverSize; s++ {
			for _, m := range sched.From(s) {
				if m.To == me {
					expect[s] += m.Elements()
				}
			}
		}
	}
	missing := map[int]bool{}
	for s, want := range expect {
		if want > p.gotBy[s] {
			missing[s] = true
		}
	}
	// An empty set with incomplete counts means a truncated or corrupt
	// segment rather than a silent rank; MissingRanks is then empty.
	ie.MissingRanks = sortedRanks(missing)
	return ie
}

func replyOutLen(r *pgiop.Reply, param int) (int, bool) {
	for _, ol := range r.OutLens {
		if int(ol.Param) == param {
			return int(ol.N), true
		}
	}
	return 0, false
}

// failAll resolves every pending invocation with the transport error —
// connection loss must not hang waiters.
func (o *ORB) failAll(err error) {
	o.mu.Lock()
	ps := o.pending
	o.pending = map[uint32]*pendingReq{}
	o.inflight = map[string]int{}
	parked := o.backoff
	o.backoff = nil
	o.mu.Unlock()
	for _, p := range ps {
		orbTransportFails.Inc()
		o.resolve(p, nil, fmt.Errorf("core: transport failed: %w", err))
	}
	for _, p := range parked {
		orbTransportFails.Inc()
		o.resolve(p, nil, fmt.Errorf("core: transport failed: %w", err))
	}
}

func (o *ORB) handleMsg(m *Msg) {
	switch m.Type {
	case pgiop.MsgReply:
		o.handleReply(m.Reply)
	case pgiop.MsgArgStream:
		o.handleSegment(m.Arg)
	}
}

func (o *ORB) handleReply(r *pgiop.Reply) {
	o.mu.Lock()
	p := o.pending[r.ReqID]
	o.mu.Unlock()
	if p == nil || p.reply != nil {
		return // cancelled, duplicate, or unknown
	}
	if r.Status == pgiop.StatusOverloaded {
		// Admission shed: the server refused to queue the request and hinted
		// when to retry. A retryable request parks for exactly that hint
		// (backing off per the server's own estimate beats re-guessing);
		// otherwise the shed surfaces as a ShedError for the caller — a
		// group binding fails it over to another member.
		orbSheds.Inc()
		if o.claim(r.ReqID) == nil {
			return // timed out or cancelled first
		}
		if p.trace != 0 {
			obs.DefaultTracer.MarkTrace(p.trace, obs.RetainShed)
		}
		hint := float64(r.RetryAfterMS) / 1000
		if p.retryable() && p.attempt < p.policy.attempts() {
			delay := hint
			if delay <= 0 {
				delay = p.policy.backoff(p.attempt, p.rng)
			}
			o.parkAfter(p, delay)
			return
		}
		o.resolve(p, nil, &ShedError{Op: p.op.Name, RetryAfter: hint})
		return
	}
	if r.Status != pgiop.StatusOK {
		if o.claim(r.ReqID) == nil {
			return // timed out or cancelled first
		}
		o.resolve(p, nil, fmt.Errorf("core: server exception: %s", r.Error))
		return
	}
	p.reply = r
	// The reply announces each distributed out argument's length; shape
	// the holders and account for the elements this thread expects.
	for _, ol := range r.OutLens {
		param := int(ol.Param)
		holder := p.holders[param]
		if holder == nil {
			if o.claim(r.ReqID) == nil {
				return
			}
			o.resolve(p, nil, fmt.Errorf("core: reply announces unknown out parameter %d", param))
			return
		}
		layout := p.tmpls[param].Layout(int(ol.N), o.size())
		holder.Reshape(layout)
		p.need[param] = layout.Count(o.rank())
	}
	// Apply segments that raced ahead of the reply.
	buf := p.buf
	p.buf = nil
	for _, a := range buf {
		o.applySegment(p, a)
	}
	o.maybeComplete(r.ReqID, p)
}

func (o *ORB) handleSegment(a *pgiop.ArgStream) {
	if a.Dir != pgiop.DirOut {
		return // in-direction segments are a server-side concern
	}
	o.mu.Lock()
	p := o.pending[a.ReqID]
	o.mu.Unlock()
	if p == nil {
		return
	}
	if p.reply == nil {
		p.buf = append(p.buf, a)
		return
	}
	o.applySegment(p, a)
	o.maybeComplete(a.ReqID, p)
}

func (o *ORB) applySegment(p *pendingReq, a *pgiop.ArgStream) {
	param := int(a.Param)
	holder := p.holders[param]
	if holder == nil {
		return
	}
	n, runs, err := ApplySegment(holder, a, p.need[param]-p.got[param], o.runScratch)
	o.runScratch = runs[:0]
	if err != nil {
		p.fail(o, a.ReqID, fmt.Errorf("core: out parameter %d: %w", param, err))
		return
	}
	p.got[param] += n
	if p.gotBy == nil {
		p.gotBy = map[int]int{}
	}
	p.gotBy[int(a.Sender)] += n
}

// ApplySegment validates one incoming distributed-argument segment and
// decodes it into the holder's local storage. Every run must lie inside
// local storage and the runs must total at most remaining — the elements
// still owed — so a hostile or overflowing segment is rejected before any
// of its payload is written. runs is scratch for the decoded run list; the
// possibly grown slice is returned for reuse.
func ApplySegment(holder dseq.Distributed, a *pgiop.ArgStream, remaining int, runs []dist.Run) (int, []dist.Run, error) {
	localLen := holder.LocalLen()
	runs = runs[:0]
	n := 0
	for _, r := range a.Runs {
		if r.Len < 0 || r.DstOff < 0 || int(r.DstOff)+int(r.Len) > localLen {
			return 0, runs, fmt.Errorf("segment run [%d+%d] exceeds local storage %d", r.DstOff, r.Len, localLen)
		}
		runs = append(runs, dist.Run{Global: int(r.Global), Len: int(r.Len), DstOff: int(r.DstOff)})
		n += int(r.Len)
	}
	if n > remaining {
		return 0, runs, fmt.Errorf("segment of %d elements exceeds the %d still expected", n, remaining)
	}
	d := cdr.GetDecoder(a.Payload)
	err := holder.DecodeRuns(d, runs)
	d.Release()
	if err != nil {
		return 0, runs, fmt.Errorf("corrupt segment payload: %w", err)
	}
	return n, runs, nil
}

func (p *pendingReq) fail(o *ORB, reqID uint32, err error) {
	if o.claim(reqID) == nil {
		return // already claimed by cancel, timeout, or a racing resolver
	}
	o.resolve(p, nil, err)
}

// maybeComplete resolves the invocation once the reply and all expected
// out-argument elements have arrived.
func (o *ORB) maybeComplete(reqID uint32, p *pendingReq) {
	if p.reply == nil {
		return
	}
	for param, need := range p.need {
		if p.got[param] != need {
			return
		}
	}
	// Decode the inline results: return value then non-distributed
	// out/inout parameters, in declaration order. The reply frame belongs
	// to this invocation, so decoded values may alias it (zero-copy).
	dec := cdr.GetDecoder(p.reply.Body)
	dec.SetBorrow(true)
	defer dec.Release()
	vals := make([]any, 0, resultCount(p.op))
	if p.op.Result != nil {
		v, err := typecode.Unmarshal(dec, p.op.Result)
		if err != nil {
			p.fail(o, reqID, fmt.Errorf("core: corrupt return value: %w", err))
			return
		}
		vals = append(vals, v)
	}
	for i := range p.op.Params {
		prm := &p.op.Params[i]
		if prm.Mode == In {
			continue
		}
		if prm.Distributed() {
			vals = append(vals, p.holders[i])
			continue
		}
		v, err := typecode.Unmarshal(dec, prm.Type)
		if err != nil {
			p.fail(o, reqID, fmt.Errorf("core: corrupt out value %s: %w", prm.Name, err))
			return
		}
		vals = append(vals, v)
	}
	if o.claim(reqID) == nil {
		return // a racing cancel or timeout won; discard the late result
	}
	o.resolve(p, vals, nil)
}

// Comm exposes the ORB's run-time-system communicator (nil for single
// clients). Generated stubs use it to build distributed argument holders.
func (o *ORB) Comm() rts.Comm { return o.comm }

// ORB returns the binding's owning ORB.
func (b *Binding) ORB() *ORB { return b.orb }
