package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"pardis/internal/core"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

// echoSize is the echo payload: the smallest message the workload sends.
const echoSize = 64

func echoIface() *core.InterfaceDef {
	octets := typecode.SequenceOf(typecode.TCOctet, 0)
	return &core.InterfaceDef{
		Name: "echo",
		Ops: []core.Operation{{
			Name:   "echo",
			Params: []core.Param{core.NewParam("data", core.In, octets)},
			Result: octets,
		}},
	}
}

// echoServant returns its argument. The reply is encoded before the
// dispatch returns, so handing back the aliased argument is safe.
func echoServant() poa.Servant {
	return timedServant(func(_ *poa.Context, op string, in []any) (any, []any, error) {
		if op != "echo" {
			return nil, nil, fmt.Errorf("echo: no operation %s", op)
		}
		return in[0], nil, nil
	})
}

// echoSpec: two clients, each one blocking call outstanding, 64 B in and
// out of one single object over loopback TCP.
func echoSpec(seed int64) singleSpec {
	payloads := func(id int) [][]byte {
		rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
		ps := make([][]byte, 64)
		for i := range ps {
			ps[i] = make([]byte, echoSize)
			rng.Read(ps[i])
		}
		return ps
	}
	call := func(c *singleClient, data []byte) opRec {
		t0 := obs.NowNS()
		issue := spanStart()
		cell, err := c.b.InvokeNB("echo", []any{data})
		traceSpan("core.issue", 0, issue)
		rec := opRec{bytes: 2 * echoSize}
		if err == nil {
			wait := spanStart()
			var vals []any
			vals, err = cell.Values()
			traceSpan("future.wait", 0, wait)
			if err == nil {
				if got, ok := vals[0].([]byte); !ok || !bytes.Equal(got, data) {
					rec.fail = opWrong
				}
			}
		}
		if err != nil {
			rec.fail = classify(err)
		}
		rec.finish(t0)
		return rec
	}
	return singleSpec{
		name:     "echo",
		iface:    echoIface(),
		servant:  echoServant(),
		clients:  2,
		inflight: 1,
		first: func(c *singleClient, id int) error {
			r := call(c, payloads(id)[0])
			if r.fail != opOK {
				return fmt.Errorf("echo client %d: first call failed (%d)", id, r.fail)
			}
			return nil
		},
		loop: func(c *singleClient, id int, ph phase) []opRec {
			ps := payloads(id)
			var recs []opRec
			for i := 0; !ph.stop(i); i++ {
				recs = append(recs, call(c, ps[i%len(ps)]))
			}
			return recs
		},
	}
}
