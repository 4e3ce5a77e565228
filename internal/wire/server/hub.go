package server

import (
	"encoding/json"
	"sync"
	"time"

	"moca/internal/obs"
)

// tick is one progress observation fanned out to stream subscribers.
type tick struct {
	done, total uint64
	obs         json.RawMessage // live metrics snapshot (nil without -metrics)
}

// subscriber receives ticks latest-wins: the channel holds one slot and a
// slow reader only ever misses intermediate ticks, never the freshest.
type subscriber struct {
	ch chan tick
}

// hub fans simulation progress out to stream subscriptions. It is wired
// as exp.Runner.OnProgress for every runner, keyed by memo key, so any
// number of clients joined to one flight observe the same ticks.
type hub struct {
	mu   sync.Mutex
	subs map[string][]*subscriber
	last map[string]time.Time
}

// hubTickInterval bounds per-key tick processing: the simulator reports
// every few hundred cycles, far too often to snapshot and fan out.
const hubTickInterval = 10 * time.Millisecond

func newHub() *hub {
	return &hub{
		subs: make(map[string][]*subscriber),
		last: make(map[string]time.Time),
	}
}

// tick has exp.Runner.OnProgress's shape. It runs on the simulation's
// flight goroutine between two windows, so it must stay cheap: without
// subscribers it is one mutex round trip, and with them the snapshot and
// fan-out are rate-limited per key. The terminal tick (done == total)
// always goes through so subscribers observe completion.
func (h *hub) tick(memoKey string, done, total uint64, snap func() *obs.Snapshot) {
	h.mu.Lock()
	if len(h.subs[memoKey]) == 0 {
		h.mu.Unlock()
		return
	}
	now := time.Now()
	if done < total && now.Sub(h.last[memoKey]) < hubTickInterval {
		h.mu.Unlock()
		return
	}
	h.last[memoKey] = now
	h.mu.Unlock()

	var obsJSON json.RawMessage
	// snap is only valid during this callback: capture before fan-out.
	if s := snap(); s != nil {
		if data, err := json.Marshal(s); err == nil {
			obsJSON = data
		}
	}
	tk := tick{done: done, total: total, obs: obsJSON}
	h.mu.Lock()
	for _, sb := range h.subs[memoKey] {
		// Latest-wins, never blocking the simulation: displace a stale
		// tick if the subscriber has not drained it yet.
		select {
		case sb.ch <- tk:
		default:
			select {
			case <-sb.ch:
			default:
			}
			select {
			case sb.ch <- tk:
			default:
			}
		}
	}
	h.mu.Unlock()
}

// subscribe registers interest in one memo key and returns the tick
// channel plus an unsubscribe function (idempotent per subscription).
func (h *hub) subscribe(memoKey string) (<-chan tick, func()) {
	sb := &subscriber{ch: make(chan tick, 1)}
	h.mu.Lock()
	h.subs[memoKey] = append(h.subs[memoKey], sb)
	h.mu.Unlock()
	return sb.ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		list := h.subs[memoKey]
		for i, x := range list {
			if x == sb {
				h.subs[memoKey] = append(list[:i:i], list[i+1:]...)
				break
			}
		}
		if len(h.subs[memoKey]) == 0 {
			delete(h.subs, memoKey)
			delete(h.last, memoKey)
		}
	}
}
