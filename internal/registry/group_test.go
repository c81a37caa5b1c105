package registry_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/rts"
)

// startRepoWith runs the given repository servant (so tests can inject its
// clock, TTL and picker seed) and returns its address plus a stop function.
func startRepoWith(t *testing.T, fab *nexus.Inproc, repo *registry.Repository) (string, func()) {
	t.Helper()
	g := rts.NewChanGroup("repohost", 1)
	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := g.Thread(0)
		r := core.NewRouter(fab.NewEndpoint("repo"))
		p := poa.New(th, r, nil)
		p.PollInterval = 20e-6
		if _, err := p.RegisterSingle(registry.RepositoryKey, registry.Iface(), repo); err != nil {
			t.Error(err)
			return
		}
		addrCh <- string(r.Addr())
		p.ImplIsReady()
	}()
	addr := <-addrCh
	stop := func() {
		orb := core.NewORB(core.NewRouter(fab.NewEndpoint("stopper")), nil, nil)
		b, _ := orb.Bind(registry.BootstrapIOR(addr), registry.Iface())
		b.Shutdown("test done")
		wg.Wait()
	}
	return addr, stop
}

func memberIOR(id, host string) core.IOR {
	return core.IOR{Interface: "svc", Key: id, ServerSize: 1,
		Addrs: []string{"inproc://" + id + "/1"}, Host: host}
}

// TestGroupExpiryWithinTwoHeartbeats drives member aging on an injected
// clock: with the conventional TTL of two heartbeat periods, a member whose
// reports stop is resolvable up to the TTL and gone the first resolve after
// it — within two heartbeat periods of its last report, deterministically.
func TestGroupExpiryWithinTwoHeartbeats(t *testing.T) {
	const hb = 1.0
	now := 0.0
	repo := registry.NewRepository()
	repo.SetClock(func() float64 { return now })
	repo.SetMemberTTL(2 * hb)

	fab := nexus.NewInproc()
	addr, stop := startRepoWith(t, fab, repo)
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, err := registry.Open(orb, addr)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("m%d", i)
		if err := c.RegisterMember("svc", id, memberIOR(id, "")); err != nil {
			t.Fatal(err)
		}
	}
	members, err := c.ResolveGroup("svc")
	if err != nil || len(members) != 4 {
		t.Fatalf("resolve = %d members, %v; want 4", len(members), err)
	}

	// m1..m3 keep heartbeating; m0 goes silent after its registration at 0.
	for beat := 1; beat <= 2; beat++ {
		now = float64(beat) * hb
		for i := 1; i < 4; i++ {
			known, err := c.ReportLoad("svc", fmt.Sprintf("m%d", i), registry.Digest{P95: 0.01 * float64(i), Depth: i})
			if err != nil || !known {
				t.Fatalf("beat %d m%d: known=%v err=%v", beat, i, known, err)
			}
		}
	}

	// At exactly the TTL the member still resolves (age == TTL is the edge).
	members, err = c.ResolveGroup("svc")
	if err != nil || len(members) != 4 {
		t.Fatalf("at TTL: %d members, %v; want 4", len(members), err)
	}

	// First resolve past two silent heartbeat periods: m0 is gone.
	now = 2*hb + 0.01
	members, err = c.ResolveGroup("svc")
	if err != nil || len(members) != 3 {
		t.Fatalf("past TTL: %d members, %v; want 3", len(members), err)
	}
	for _, m := range members {
		if m.Key == "m0" {
			t.Fatalf("expired member m0 still resolves: %+v", members)
		}
	}

	// The silent member's next report finds itself unknown, so its next
	// heartbeat tick re-registers it, after which it resolves again — the
	// heartbeat recovery contract.
	snap := func() registry.Digest { return registry.Digest{P95: 0.001} }
	known, err := c.ReportLoad("svc", "m0", snap())
	if err != nil || known {
		t.Fatalf("report for expired member: known=%v err=%v, want false,nil", known, err)
	}
	if !registry.Beat(c, "svc", "m0", memberIOR("m0", ""), known, snap) {
		t.Fatal("re-registering heartbeat tick left the member unregistered")
	}
	if members, err = c.ResolveGroup("svc"); err != nil || len(members) != 4 {
		t.Fatalf("after re-register: %d members, %v; want 4", len(members), err)
	}
}

// TestUnregisterMemberVsName: unregister_member removes one replica,
// unregister removes the whole name — plain binding and group alike.
func TestUnregisterMemberVsName(t *testing.T) {
	fab := nexus.NewInproc()
	addr, stop := startRepoWith(t, fab, registry.NewRepository())
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, _ := registry.Open(orb, addr)

	if err := c.RegisterMember("svc", "m0", memberIOR("m0", "")); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterMember("svc", "m1", memberIOR("m1", "")); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("svc", memberIOR("plain", "")); err != nil {
		t.Fatal(err)
	}

	if err := c.UnregisterMember("svc", "m0"); err != nil {
		t.Fatal(err)
	}
	members, err := c.ResolveGroup("svc")
	if err != nil || len(members) != 1 || members[0].Key != "m1" {
		t.Fatalf("after member removal: %+v, %v; want just m1", members, err)
	}
	// Removing an unknown member or from an unknown group is a no-op.
	if err := c.UnregisterMember("svc", "ghost"); err != nil {
		t.Fatal(err)
	}
	if err := c.UnregisterMember("no-such-group", "m1"); err != nil {
		t.Fatal(err)
	}

	// Unregister of the name takes the plain binding AND the group.
	if err := c.Unregister("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("svc"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("lookup after unregister: %v", err)
	}
	if _, err := c.ResolveGroup("svc"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("group survived unregister of its name: %v", err)
	}

	// The group disappears with its last member too.
	c.RegisterMember("solo", "only", memberIOR("only", ""))
	c.UnregisterMember("solo", "only")
	if _, err := c.ResolveGroup("solo"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("empty group still resolves: %v", err)
	}
}

// TestResolveGroupHostFilter: Resolve falls through to group membership
// when no plain binding exists, and the hostFilter picks the best member on
// the requested host rather than failing on the group head's placement.
func TestResolveGroupHostFilter(t *testing.T) {
	fab := nexus.NewInproc()
	addr, stop := startRepoWith(t, fab, registry.NewRepository())
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, _ := registry.Open(orb, addr)

	c.RegisterMember("gsvc", "a", memberIOR("a", "onyx"))
	c.RegisterMember("gsvc", "b", memberIOR("b", "sp2"))

	got, err := c.Resolve(orb, "gsvc", "")
	if err != nil || (got.Key != "a" && got.Key != "b") {
		t.Fatalf("unfiltered group resolve = %+v, %v", got, err)
	}
	got, err = c.Resolve(orb, "gsvc", "sp2")
	if err != nil || got.Key != "b" {
		t.Fatalf("filtered resolve = %+v, %v; want member b on sp2", got, err)
	}
	if _, err := c.Resolve(orb, "gsvc", "indy"); err == nil {
		t.Fatal("host filter matched no member but Resolve succeeded")
	}

	// A plain binding under the same name wins over the group.
	c.Register("gsvc", memberIOR("plain", "onyx"))
	got, err = c.Resolve(orb, "gsvc", "")
	if err != nil || got.Key != "plain" {
		t.Fatalf("plain binding did not shadow group: %+v, %v", got, err)
	}
}

// TestGroupResolveOrderFollowsLoad: the resolve order is the failover plan
// — with fresh reports, lighter members come before heavier ones.
func TestGroupResolveOrderFollowsLoad(t *testing.T) {
	repo := registry.NewRepository()
	now := 0.0
	repo.SetClock(func() float64 { return now })
	repo.SetMemberTTL(10)
	fab := nexus.NewInproc()
	addr, stop := startRepoWith(t, fab, repo)
	defer stop()
	orb := core.NewORB(core.NewRouter(fab.NewEndpoint("cli")), nil, nil)
	c, _ := registry.Open(orb, addr)

	loads := map[string]float64{"m0": 0.3, "m1": 0.1, "m2": 0.2}
	for id, l := range loads {
		c.RegisterMember("svc", id, memberIOR(id, ""))
		if _, err := c.ReportLoad("svc", id, registry.Digest{P95: l}); err != nil {
			t.Fatal(err)
		}
	}
	members, err := c.ResolveGroup("svc")
	if err != nil || len(members) != 3 {
		t.Fatalf("resolve = %v, %v", members, err)
	}
	// Whatever the pick policy chose as head, the remainder must be sorted
	// by ascending load.
	for i := 1; i < len(members)-1; i++ {
		if loads[members[i].Key] > loads[members[i+1].Key] {
			t.Fatalf("failover tail out of load order: %v", memberKeys(members))
		}
	}
}

func memberKeys(members []core.IOR) []string {
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.Key
	}
	return out
}

// TestConcurrentRegisterLookup hammers the repository servant from many
// goroutines mixing naming and group operations — the LocalTable-bypass and
// daemon-sweeper concurrency the Repository documents, checked under -race.
func TestConcurrentRegisterLookup(t *testing.T) {
	repo := registry.NewRepository()
	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			name := fmt.Sprintf("svc-%d", w%4) // overlap across workers
			id := fmt.Sprintf("m-%d", w)
			ior := memberIOR(id, "").String()
			for i := 0; i < iters; i++ {
				var err error
				switch rng.Intn(6) {
				case 0:
					_, _, err = repo.Invoke(nil, "register", []any{name, ior})
				case 1:
					_, _, err = repo.Invoke(nil, "lookup", []any{name})
				case 2:
					_, _, err = repo.Invoke(nil, "register_member", []any{name, id, ior})
				case 3:
					_, _, err = repo.Invoke(nil, "report_load", []any{name, id, rng.Float64(), int32(rng.Intn(8)), ""})
				case 4:
					_, _, err = repo.Invoke(nil, "resolve_group", []any{name, nil})
				case 5:
					repo.SweepExpired()
				}
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The tables are still coherent: every surviving group resolves.
	for _, g := range repo.GroupsSnapshot() {
		if len(g.Members) == 0 {
			t.Fatalf("snapshot holds empty group %q", g.Name)
		}
	}
}
