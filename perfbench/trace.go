package main

import (
	"sort"
	"time"

	"pardis/internal/obs"
)

// tracedBurst bounds the invocations per worker between span harvests,
// keeping each burst's spans well inside the default tracer's ring.
const tracedBurst = 400

// selfTimes accumulates, per span name, the span's self time: its duration
// minus the part of it that the spans nested in it cover. A span is nested
// in another when the two are linked by a parent ID, were recorded on the
// same rank and the same side (client or server), and one lies inside the
// other in time.
type selfTimes struct {
	ns    map[string]int64
	ranks map[string]map[int32]bool
}

func newSelfTimes() *selfTimes {
	return &selfTimes{ns: map[string]int64{}, ranks: map[string]map[int32]bool{}}
}

// perOp returns the named span's self time in microseconds, per
// invocation and per rank that recorded it.
func (s *selfTimes) perOp(name string, ops int) float64 {
	r := len(s.ranks[name])
	if ops == 0 || r == 0 {
		return 0
	}
	return float64(s.ns[name]) / float64(ops) / float64(r) / 1e3
}

// clientSide reports whether a span was recorded by the invoking side. The
// client and server of a workload share one process and rank numbers, so
// the side keeps a server span from counting as a client span's child.
func clientSide(sp *obs.Span) bool {
	switch sp.Layer {
	case obs.LayerStub, obs.LayerORB:
		return true
	case benchLayer:
		return sp.Name != "poa.servant"
	}
	return sp.Name == "pgiop.encode"
}

type interval struct{ start, end int64 }

// add folds one harvest of spans into the totals. The benchmark's
// poa.servant spans carry no parent ID, so they count as nested in the
// poa.dispatch span on their rank that contains them.
func (s *selfTimes) add(spans []obs.Span) {
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	children := map[int][]interval{}
	servants := map[int32][]interval{}
	for i := range spans {
		sp := &spans[i]
		if sp.Layer == benchLayer && sp.Name == "poa.servant" {
			servants[sp.Rank] = append(servants[sp.Rank], interval{sp.Start, sp.End})
		}
		p, ok := byID[sp.Parent]
		if sp.Parent == 0 || !ok {
			continue
		}
		ps := &spans[p]
		if ps.Rank != sp.Rank || clientSide(ps) != clientSide(sp) {
			continue
		}
		// A parent link names the span that caused this one, which does not
		// always enclose it in time (a server's pgiop.decode is the parent
		// of the poa.dispatch around it). Whichever of the two lies inside
		// the other is the nested one.
		switch {
		case sp.Start >= ps.Start && sp.End <= ps.End:
			children[p] = append(children[p], interval{sp.Start, sp.End})
		case ps.Start >= sp.Start && ps.End <= sp.End:
			children[i] = append(children[i], interval{ps.Start, ps.End})
		}
	}
	for _, iv := range servants {
		sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
	}
	for i := range spans {
		sp := &spans[i]
		kids := children[i]
		if sp.Name == "poa.dispatch" {
			iv := servants[sp.Rank]
			k := sort.Search(len(iv), func(j int) bool { return iv[j].start >= sp.Start })
			for ; k < len(iv) && iv[k].start <= sp.End; k++ {
				kids = append(kids, iv[k])
			}
		}
		s.ns[sp.Name] += sp.End - sp.Start - covered(sp.Start, sp.End, kids)
		if s.ranks[sp.Name] == nil {
			s.ranks[sp.Name] = map[int32]bool{}
		}
		s.ranks[sp.Name][sp.Rank] = true
	}
}

// covered returns the length of [start, end] covered by the union of the
// intervals.
func covered(start, end int64, ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	var total int64
	cur := start
	for _, iv := range ivs {
		s, e := max(iv.start, cur), min(iv.end, end)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// tracedRun runs the workload with the default tracer on (retain-all) in
// bursts of tracedBurst invocations per worker until the deadline,
// harvesting and clearing the spans after each burst.
func tracedRun(e *env, until time.Time) (recs []opRec, st *selfTimes, dropped uint64) {
	tr := obs.DefaultTracer
	st = newSelfTimes()
	tr.Reset()
	for time.Now().Before(until) && !e.stalled {
		tr.SetEnabled(true)
		recs = append(recs, e.runPhase(phase{deadline: until, maxOps: tracedBurst}, phaseGrace)...)
		// Spans a server records after its reply has gone out land within
		// this pause.
		time.Sleep(2 * time.Millisecond)
		tr.SetEnabled(false)
		st.add(tr.Spans())
		dropped += tr.Dropped()
		tr.Reset()
	}
	return recs, st, dropped
}
