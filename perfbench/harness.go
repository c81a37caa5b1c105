package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"pardis/internal/core"
	"pardis/internal/obs"
	"pardis/internal/poa"
)

// failKind classifies one invocation's outcome.
type failKind uint8

const (
	opOK      failKind = iota
	opError            // the invocation resolved with an error
	opRefused          // the server shed the request (admission control)
	opWrong            // the reply arrived but failed the output check
	opStalled          // the client never finished before the wall deadline
)

// opRec is one invocation as the client saw it: from just before the stub
// call to the verified result.
type opRec struct {
	lat   int64 // nanoseconds
	large bool  // the workload's large op (put, scale); echo has only one op
	bytes int64 // application argument bytes in + out
	fail  failKind
}

// finish stamps the record's latency, t0 being its start.
func (r *opRec) finish(t0 int64) { r.lat = obs.NowNS() - t0 }

// classify maps an invocation error to its failure kind.
func classify(err error) failKind {
	if errors.Is(err, core.ErrOverloaded) {
		return opRefused
	}
	return opError
}

// phase tells every client how long to run its closed loop.
type phase struct {
	deadline time.Time // issue no new invocation after this instant
	maxOps   int       // per client; 0 means until the deadline
}

func (ph phase) stop(issued int) bool {
	return (ph.maxOps > 0 && issued >= ph.maxOps) || !time.Now().Before(ph.deadline)
}

// worker is one client goroutine (or one rank of the SPMD client). It runs
// one closed loop per phase it receives and answers with its records.
type worker struct {
	phases  chan phase
	results chan []opRec
}

func newWorker() *worker {
	return &worker{phases: make(chan phase), results: make(chan []opRec, 1)}
}

// serve runs loop once per phase until the phase channel closes.
func (w *worker) serve(loop func(phase) []opRec) {
	for ph := range w.phases {
		w.results <- loop(ph)
	}
}

// env is one set-up instance of a workload: server(s), repository and
// clients, with every client past its first verified reply.
type env struct {
	workers  []*worker
	inflight int // most invocations one worker keeps outstanding
	// merge turns per-worker records into per-invocation records; the SPMD
	// client's two ranks each record every collective call.
	merge func([][]opRec) []opRec
	// abort closes the client transports, failing every pending future, so
	// a stalled client returns instead of hanging.
	abort func()
	wg    sync.WaitGroup // every goroutine the environment started
	// stalled is set once a worker failed to answer even after abort; no
	// further phase runs on the environment.
	stalled bool

	setupNS   int64 // start to first verified reply on every client
	lookupNS  int64 // client 0's repository lookup
	bindNS    int64 // client 0's Bind or SPMDBind
	connsLive int64 // nexus_tcp_connections_live once set up
}

// ready collects each worker's set-up outcome.
type ready struct {
	err      error
	lookupNS int64
	bindNS   int64
}

func concat(per [][]opRec) []opRec {
	var all []opRec
	for _, r := range per {
		all = append(all, r...)
	}
	return all
}

// runPhase runs one phase on every worker. A worker that has not answered
// within grace after the phase deadline is aborted; if it still does not
// answer, its outstanding invocations are reported as stalled failures.
func (e *env) runPhase(ph phase, grace time.Duration) []opRec {
	for _, w := range e.workers {
		w.phases <- ph
	}
	per := make([][]opRec, len(e.workers))
	timeout := time.NewTimer(time.Until(ph.deadline) + grace)
	defer timeout.Stop()
	aborted := false
	for i, w := range e.workers {
		select {
		case per[i] = <-w.results:
			continue
		case <-timeout.C:
		}
		if !aborted {
			aborted = true
			e.abort()
		}
		select {
		case per[i] = <-w.results:
		case <-time.After(5 * time.Second):
			per[i] = make([]opRec, e.inflight)
			for j := range per[i] {
				per[i][j].fail = opStalled
			}
			e.workers[i] = nil
			e.stalled = true
		}
	}
	return e.merge(per)
}

// close ends every worker loop and waits for the environment's goroutines.
// It reports false if they did not all end within the timeout.
func (e *env) close(timeout time.Duration) bool {
	for _, w := range e.workers {
		if w != nil {
			close(w.phases)
		}
	}
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		e.abort()
		return false
	}
}

// lockstep keeps the ranks of an SPMD client on the same call sequence:
// every rank arrives before each call, the last arriver decides whether
// the loop goes on, and all ranks read the same answer. It is the
// benchmark's own synchronisation (a mutex and condition variable), so it
// adds no rts traffic to what the program's counters see.
type lockstep struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	more    bool
}

func newLockstep(n int) *lockstep {
	l := &lockstep{n: n}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *lockstep) next(decide func() bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	gen := l.gen
	l.arrived++
	if l.arrived == l.n {
		l.more = decide()
		l.arrived = 0
		l.gen++
		l.cond.Broadcast()
		return l.more
	}
	for gen == l.gen {
		l.cond.Wait()
	}
	return l.more
}

// traceSpan records one of the benchmark's own spans around a public call
// into a layer, when the traced run has the tracer on.
func traceSpan(name string, rank int, start int64) {
	if start == 0 {
		return
	}
	obs.DefaultTracer.Record(obs.Span{
		ID: obs.NewID(), Layer: benchLayer, Name: name,
		Rank: int32(rank), Start: start, End: obs.NowNS(),
	})
}

// spanStart returns the span start time, or 0 when tracing is off.
func spanStart() int64 {
	if obs.DefaultTracer.Enabled() {
		return obs.NowNS()
	}
	return 0
}

// benchLayer labels spans the benchmark records itself.
const benchLayer = "bench"

// cpuNS reads the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile returns the q-quantile (0..1) of sorted values by the
// nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail returns the highest of the standard percentiles that still has at
// least ten samples beyond it, and its value; 0, 0 when there are fewer
// than twenty samples.
func tail(sorted []float64) (pct, value float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if float64(len(sorted))*(1-p/100) >= 10 {
			return p, quantile(sorted, p/100)
		}
	}
	return 0, 0
}

// latencies splits successful records into small- and large-op latencies
// in microseconds, sorted.
func latencies(recs []opRec) (small, large []float64) {
	for _, r := range recs {
		if r.fail != opOK {
			continue
		}
		us := float64(r.lat) / 1e3
		if r.large {
			large = append(large, us)
		} else {
			small = append(small, us)
		}
	}
	sort.Float64s(small)
	sort.Float64s(large)
	return small, large
}

// failures counts records by outcome.
type failures struct {
	attempted, failed, errored, refused, wrong, stalled int
}

func countFailures(recs []opRec) failures {
	f := failures{attempted: len(recs)}
	for _, r := range recs {
		switch r.fail {
		case opOK:
			continue
		case opError:
			f.errored++
		case opRefused:
			f.refused++
		case opWrong:
			f.wrong++
		case opStalled:
			f.stalled++
		}
		f.failed++
	}
	return f
}

func (f failures) String() string {
	return fmt.Sprintf("attempted=%d failed=%d (errors=%d refused=%d wrong=%d stalled=%d)",
		f.attempted, f.failed, f.errored, f.refused, f.wrong, f.stalled)
}

// timedServant wraps a servant so the traced run records the application's
// own work (the servant body) as a poa.servant span on the serving rank.
func timedServant(f poa.ServantFunc) poa.Servant {
	return poa.ServantFunc(func(ctx *poa.Context, op string, in []any) (any, []any, error) {
		start := spanStart()
		ret, outs, err := f(ctx, op, in)
		traceSpan("poa.servant", ctx.Thread.Rank(), start)
		return ret, outs, err
	})
}

func (f *failures) add(g failures) {
	f.attempted += g.attempted
	f.failed += g.failed
	f.errored += g.errored
	f.refused += g.refused
	f.wrong += g.wrong
	f.stalled += g.stalled
}
