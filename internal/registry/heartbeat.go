package registry

import (
	"time"

	"pardis/internal/core"
)

// Heartbeat is a background reporter pushing one replica's load snapshots
// to a repository on a fixed period. It is the real-fabric helper (its loop
// sleeps wall time); simulation programs pace their own vtime loops and
// call Beat on every tick.
type Heartbeat struct {
	stop chan struct{}
	done chan struct{}
}

// StartHeartbeat registers the member and then reports snap() every period
// seconds until Stop; the digest's P95/Depth double as the load signal. Pair
// with AdapterDigest for the usual one-POA replica.
//
// The first registration attempt runs before StartHeartbeat returns, so a
// reachable repository already resolves the member when the caller goes on
// to start clients; a failed attempt is retried on the next beat. After
// that the Client belongs to the heartbeat goroutine — bindings are owned by
// one thread — and its deadline is set to the period so a dead repository
// costs one beat, never a wedge. A report answered with "unknown member"
// (the repository expired us during a partition) re-registers on the next
// beat. Errors are absorbed: a replica that cannot reach its repository
// keeps serving and keeps trying.
func StartHeartbeat(c *Client, name, memberID string, ior core.IOR, period float64, snap func() Digest) *Heartbeat {
	c.SetDeadline(period)
	registered := c.RegisterMember(name, memberID, ior) == nil
	h := &Heartbeat{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Duration(period * float64(time.Second)))
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			registered = Beat(c, name, memberID, ior, registered, snap)
		}
	}()
	return h
}

// Beat is one heartbeat tick: it registers the member first unless
// registered, then reports snap(), and returns whether the member is still
// registered as far as the next tick should assume — false after a failed
// registration or a report answered with "unknown member" (the repository
// expired us), so the next tick re-registers.
func Beat(c *Client, name, memberID string, ior core.IOR, registered bool, snap func() Digest) bool {
	if !registered && c.RegisterMember(name, memberID, ior) != nil {
		return false
	}
	known, err := c.ReportLoad(name, memberID, snap())
	return err != nil || known
}

// Stop ends the reporting loop and waits for it to exit. The member is left
// registered; it ages out of the repository after the TTL (or is removed
// explicitly with UnregisterMember).
func (h *Heartbeat) Stop() {
	close(h.stop)
	<-h.done
}
