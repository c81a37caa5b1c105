package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/obs"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

const (
	kvKeys     = 64
	kvValue    = 64 << 10 // put payload
	kvGet      = 64       // get reply: the value's head
	kvPutFrac  = 0.10
	kvInflight = 8
	kvStamp    = 16 // key, writer, sequence; repeated as the value's trailer
)

func kvIface() *core.InterfaceDef {
	octets := typecode.SequenceOf(typecode.TCOctet, 0)
	return &core.InterfaceDef{
		Name: "kv",
		Ops: []core.Operation{
			{
				Name:   "get",
				Params: []core.Param{core.NewParam("key", core.In, typecode.TCLong)},
				Result: octets,
			},
			{
				Name: "put",
				Params: []core.Param{
					core.NewParam("key", core.In, typecode.TCLong),
					core.NewParam("value", core.In, octets),
				},
			},
		},
	}
}

// stampValue writes the key, writer and sequence into v's head and
// trailer, and the stamp-dependent check bytes that a get returns.
func stampValue(v []byte, key int32, writer uint32, seq uint64) {
	binary.LittleEndian.PutUint32(v[0:], uint32(key))
	binary.LittleEndian.PutUint32(v[4:], writer)
	binary.LittleEndian.PutUint64(v[8:], seq)
	h := checkByte(key, writer, seq)
	for i := kvStamp; i < kvGet; i++ {
		v[i] = h + byte(i)
	}
	copy(v[len(v)-kvStamp:], v[:kvStamp])
}

func checkByte(key int32, writer uint32, seq uint64) byte {
	return byte(uint64(key)*7 + uint64(writer)*13 + seq*31)
}

// parseHead checks a get reply's internal consistency and returns its stamp.
func parseHead(h []byte, key int32) (writer uint32, seq uint64, ok bool) {
	if len(h) != kvGet || int32(binary.LittleEndian.Uint32(h[0:])) != key {
		return 0, 0, false
	}
	writer = binary.LittleEndian.Uint32(h[4:])
	seq = binary.LittleEndian.Uint64(h[8:])
	c := checkByte(key, writer, seq)
	for i := kvStamp; i < kvGet; i++ {
		if h[i] != c+byte(i) {
			return 0, 0, false
		}
	}
	return writer, seq, true
}

// kvStore is the servant: one 64 KiB value per key, every key written by
// writer 0 (the initial load) before the clients start. put rejects a value
// whose trailer does not repeat its head or whose head names another key.
func kvStore() poa.Servant {
	store := make([][]byte, kvKeys)
	for k := range store {
		store[k] = make([]byte, kvValue)
		stampValue(store[k], int32(k), 0, 0)
	}
	return timedServant(func(_ *poa.Context, op string, in []any) (any, []any, error) {
		key := in[0].(int32)
		if key < 0 || key >= kvKeys {
			return nil, nil, fmt.Errorf("kv: key %d out of range", key)
		}
		switch op {
		case "get":
			return append([]byte(nil), store[key][:kvGet]...), nil, nil
		case "put":
			v := in[1].([]byte)
			if len(v) != kvValue || int32(binary.LittleEndian.Uint32(v)) != key ||
				!bytes.Equal(v[:kvStamp], v[len(v)-kvStamp:]) {
				return nil, nil, fmt.Errorf("kv: corrupt value for key %d", key)
			}
			copy(store[key], v)
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("kv: no operation %s", op)
	})
}

// putLog remembers every (writer, sequence) put under each key, recorded
// before the put is issued, so a get racing a put may see either value.
type putLog struct {
	mu   sync.Mutex
	puts map[int32]map[uint64]bool
}

func stampID(writer uint32, seq uint64) uint64 { return uint64(writer)<<48 | seq }

func (l *putLog) add(key int32, writer uint32, seq uint64) {
	l.mu.Lock()
	m := l.puts[key]
	if m == nil {
		m = map[uint64]bool{}
		l.puts[key] = m
	}
	m[stampID(writer, seq)] = true
	l.mu.Unlock()
}

func (l *putLog) has(key int32, writer uint32, seq uint64) bool {
	if writer == 0 && seq == 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.puts[key][stampID(writer, seq)]
}

// kvClient is one client's generator state, kept across phases so the
// op stream and the writer sequence continue.
type kvClient struct {
	rng    *rand.Rand
	writer uint32
	seq    uint64
	value  []byte
}

type kvPending struct {
	cell *future.Cell
	t0   int64
	put  bool
	key  int32
	err  error
}

// kvSpec: two clients, each keeping eight futures in flight over one
// connection; a seeded stream of 90% 64 B gets and 10% 64 KiB puts
// against one single-object store.
func kvSpec(seed int64) singleSpec {
	puts := &putLog{puts: map[int32]map[uint64]bool{}}
	gens := make([]*kvClient, 2)
	for id := range gens {
		g := &kvClient{
			rng:    rand.New(rand.NewSource(seed*1000 + int64(id))),
			writer: uint32(id + 1),
			value:  make([]byte, kvValue),
		}
		for i := kvGet; i < kvValue-kvStamp; i++ {
			g.value[i] = byte(i * 131)
		}
		gens[id] = g
	}
	issue := func(c *singleClient, g *kvClient) kvPending {
		p := kvPending{key: int32(g.rng.Intn(kvKeys)), put: g.rng.Float64() < kvPutFrac}
		var args []any
		op := "get"
		if p.put {
			g.seq++
			stampValue(g.value, p.key, g.writer, g.seq)
			puts.add(p.key, g.writer, g.seq)
			op, args = "put", []any{p.key, g.value}
		} else {
			args = []any{p.key}
		}
		p.t0 = obs.NowNS()
		start := spanStart()
		p.cell, p.err = c.b.InvokeNB(op, args)
		traceSpan("core.issue", 0, start)
		return p
	}
	complete := func(p kvPending) opRec {
		rec := opRec{large: p.put, bytes: 4 + kvGet}
		if p.put {
			rec.bytes = 4 + kvValue
		}
		err := p.err
		if err == nil {
			start := spanStart()
			var vals []any
			vals, err = p.cell.Values()
			traceSpan("future.wait", 0, start)
			if err == nil && !p.put {
				head, _ := vals[0].([]byte)
				w, s, ok := parseHead(head, p.key)
				if !ok || !puts.has(p.key, w, s) {
					rec.fail = opWrong
				}
			}
		}
		if err != nil {
			rec.fail = classify(err)
		}
		rec.finish(p.t0)
		return rec
	}
	loop := func(c *singleClient, id int, ph phase) []opRec {
		g := gens[id]
		var recs []opRec
		q := make([]kvPending, 0, kvInflight)
		for issued := 0; ; {
			for len(q) < kvInflight && !ph.stop(issued) {
				q = append(q, issue(c, g))
				issued++
			}
			if len(q) == 0 {
				return recs
			}
			recs = append(recs, complete(q[0]))
			copy(q, q[1:])
			q = q[:len(q)-1]
		}
	}
	return singleSpec{
		name:     "kv",
		iface:    kvIface(),
		servant:  kvStore(),
		clients:  2,
		inflight: kvInflight,
		first: func(c *singleClient, id int) error {
			if r := complete(issue(c, gens[id])); r.fail != opOK {
				return fmt.Errorf("kv client %d: first call failed (%d)", id, r.fail)
			}
			return nil
		},
		loop: loop,
	}
}
