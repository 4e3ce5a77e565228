package mem

// Cross-check of the occupied-bank scans against the all-banks scans they
// replaced, plus the issue-scan microbenchmark and its CI alloc gate.

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"moca/internal/event"
)

// refPick is pick as an all-banks scan: every bank in index order, the
// empty ones skipped by their npend. It is the reference the bitset walk
// must reproduce.
func refPick(c *Controller, now event.Time) (*Request, int) {
	if c.qHead == nil {
		return nil, cmdNone
	}
	if c.cfg.Scheduler == FCFS || now-c.qHead.Arrive > c.cfg.StarvationLimit {
		r := c.qHead
		b := &c.banks[r.bank]
		if b.openRow == int64(r.row) && now >= b.casReadyAt && c.busFreeAt <= now+c.casDelay(r) {
			return r, cmdCAS
		}
		if b.openRow == -1 && b.preInFlightRow == -1 && now >= b.actAllowedAt {
			return r, cmdACT
		}
		if b.openRow != -1 && b.openRow != int64(r.row) && b.preInFlightRow == -1 &&
			now >= b.preAllowedAt {
			return r, cmdPRE
		}
		return nil, cmdNone
	}
	var cas, act, pre *Request
	for i := range c.banks {
		b := &c.banks[i]
		if b.npend == 0 {
			continue
		}
		if b.openRow == -1 {
			if b.preInFlightRow == -1 && now >= b.actAllowedAt {
				if r := b.head; act == nil || r.qSeq < act.qSeq {
					act = r
				}
			}
			continue
		}
		casReady := now >= b.casReadyAt
		preReady := b.preInFlightRow == -1 && now >= b.preAllowedAt
		wanted := b.rowMatch > 0
		if wanted && casReady {
			for r := b.head; r != nil; r = r.nextB {
				if int64(r.row) == b.openRow && c.busFreeAt <= now+c.casDelay(r) {
					if cas == nil || r.qSeq < cas.qSeq {
						cas = r
					}
					break
				}
			}
		}
		if preReady && !wanted {
			if r := b.head; pre == nil || r.qSeq < pre.qSeq {
				pre = r
			}
		}
	}
	switch {
	case cas != nil:
		return cas, cmdCAS
	case act != nil:
		return act, cmdACT
	case pre != nil:
		return pre, cmdPRE
	}
	return nil, cmdNone
}

// refNextWake is nextWake as an all-banks scan, without the early exit
// and without the uniform-casDelay shortcut: every row hit of every
// occupied bank is a candidate.
func refNextWake(c *Controller, now, lower event.Time, cptExhausted bool) (at, s event.Time) {
	best := event.Time(1) << 62
	if cptExhausted {
		best = now + 1
	}
	head := c.qHead
	starved := c.cfg.Scheduler == FRFCFS && now-head.Arrive > c.cfg.StarvationLimit
	if c.cfg.Scheduler == FCFS || starved {
		b := &c.banks[head.bank]
		var cand event.Time
		switch {
		case b.openRow == int64(head.row):
			cand = b.casReadyAt
			if t := c.busFreeAt - c.casDelay(head); t > cand {
				cand = t
			}
		case b.openRow == -1:
			cand = b.actAllowedAt
		default:
			cand = b.preAllowedAt
		}
		best = min(best, cand)
	} else {
		for i := range c.banks {
			b := &c.banks[i]
			if b.npend == 0 {
				continue
			}
			if b.openRow < 0 {
				best = min(best, b.actAllowedAt)
				continue
			}
			matched := false
			for r := b.head; r != nil; r = r.nextB {
				if int64(r.row) != b.openRow {
					continue
				}
				matched = true
				best = min(best, max(b.casReadyAt, c.busFreeAt-c.casDelay(r)))
			}
			if !matched {
				best = min(best, b.preAllowedAt)
			}
		}
		if best > lower {
			best = min(best, head.Arrive+c.cfg.StarvationLimit+1)
		}
	}
	best = max(min(best, c.nextRefreshAt), lower)
	k := (best - c.anchor + c.httime.TCK - 1) / c.httime.TCK
	at = c.anchor + k*c.httime.TCK
	return at, max(at-c.httime.TCK, c.anchor)
}

// TestOccupiedBankScanMatchesAllBanks drives random contended traffic
// through every device class under both schedulers and, after every
// event, checks that the occupied-bank bitset mirrors npend and that pick
// and nextWake agree with the all-banks reference scans at the current
// time and at later probe times.
func TestOccupiedBankScanMatchesAllBanks(t *testing.T) {
	for _, kind := range []Kind{DDR3, RLDRAM, HBM, LPDDR2, PCM} {
		for _, sched := range []Scheduler{FRFCFS, FCFS} {
			t.Run(kind.String()+"/"+sched.String(), func(t *testing.T) {
				checkScans(t, kind, sched, int64(kind)*2+int64(sched))
			})
		}
	}
}

func checkScans(t *testing.T, kind Kind, sched Scheduler, seed int64) {
	q := event.NewQueue()
	c, err := NewController("scan", q, ChannelConfig{
		Device:        Preset(kind),
		CapacityBytes: 1 << 28,
		Scheduler:     sched,
		MaxQueue:      48,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tck := c.httime.TCK
	nbanks := uint64(len(c.banks))
	// A few hot rows per bank and a bias toward a handful of banks give row
	// hits, conflicts, idle banks and starvation all in one run.
	addr := func() uint64 {
		bank := uint64(rng.Intn(int(nbanks)))
		if rng.Intn(2) == 0 {
			bank %= 4
		}
		row := uint64(rng.Intn(3))
		col := uint64(rng.Intn(8)) * LineBytes
		return ((row*nbanks+bank)<<c.colBits | col)
	}
	var picks, wakes int
	check := func() {
		for i := range c.banks {
			set := c.occupied[i>>6]&(1<<(i&63)) != 0
			if set != (c.banks[i].npend > 0) {
				t.Fatalf("bank %d: occupied bit %v with npend %d", i, set, c.banks[i].npend)
			}
		}
		if c.qHead == nil {
			return
		}
		now := q.Now()
		for _, at := range []event.Time{now, now + tck, now + event.Time(rng.Intn(200))*tck, now + c.cfg.StarvationLimit + 1} {
			gr, gc := c.pick(at)
			wr, wc := refPick(c, at)
			if gr != wr || gc != wc {
				t.Fatalf("t=%d: pick = (%p, %d), all-banks scan = (%p, %d)", at, gr, gc, wr, wc)
			}
			picks++
			for _, lower := range []event.Time{at, at + 1} {
				for _, cpt := range []bool{false, true} {
					ga, gs := c.nextWake(at, lower, cpt)
					wa, ws := refNextWake(c, at, lower, cpt)
					if ga != wa || gs != ws {
						t.Fatalf("t=%d lower=%d cpt=%v: nextWake = (%d, %d), all-banks scan = (%d, %d)",
							at, lower, cpt, ga, gs, wa, ws)
					}
					wakes++
				}
			}
		}
	}
	for step := 0; step < 4000; step++ {
		for n := rng.Intn(4); n > 0; n-- {
			c.EnqueueLine(addr(), rng.Intn(3) == 0, 0, 0, nil, 0)
		}
		for n := 1 + rng.Intn(6); n > 0 && q.RunOne(); n-- {
			check()
		}
	}
	q.Drain()
	check()
	if st := c.Stats(); st.RowHits == 0 || st.RowConflict == 0 || st.RowMisses == 0 {
		t.Errorf("traffic missed a command class: %+v", st)
	}
	t.Logf("%d picks, %d wakes cross-checked", picks, wakes)
}

// BenchmarkControllerIssueScan streams line requests through an HBM
// channel (64 banks) from a deterministic generator over a dozen banks,
// keeping the queue a few dozen deep, so each op pays for the scheduler's
// pick and nextWake scans over a mostly idle bank array. Requests are
// pooled (EnqueueLine), so the steady state allocates nothing.
func BenchmarkControllerIssueScan(b *testing.B) {
	q := event.NewQueue()
	c, err := NewController("bench", q, ChannelConfig{Device: Preset(HBM), CapacityBytes: 1 << 28})
	if err != nil {
		b.Fatal(err)
	}
	nbanks := uint64(len(c.banks))
	x := uint64(1)
	submit := func() {
		x = x*6364136223846793005 + 1442695040888963407
		bank := (x >> 33) % 12 * 5 % nbanks
		row := (x >> 45) % 4
		for !c.EnqueueLine((row*nbanks+bank)<<c.colBits|(x>>50)%8*LineBytes, x>>62 == 0, 0, 0, nil, 0) {
			q.RunOne()
		}
		for c.QueueLen() > 24 && q.RunOne() {
		}
	}
	// Warm the request free list and the event queue's record pool.
	for i := 0; i < 4096; i++ {
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.StopTimer()
	q.Drain()
}

// TestControllerIssueScanAllocBudget gates the issue-scan benchmark at
// 0 allocs/op: the controller's wake path runs once per memory request.
// Skipped unless MOCA_BENCH_SMOKE=1.
func TestControllerIssueScanAllocBudget(t *testing.T) {
	if os.Getenv("MOCA_BENCH_SMOKE") == "" {
		t.Skip("set MOCA_BENCH_SMOKE=1 to run the bench smoke")
	}
	data, err := os.ReadFile("../../BENCH_throughput.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Micro map[string]struct {
			AllocsPerOp int64 `json:"allocs_per_op"`
		} `json:"micro"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	m, ok := f.Micro["BenchmarkControllerIssueScan"]
	if !ok {
		t.Fatal("BENCH_throughput.json has no micro entry BenchmarkControllerIssueScan")
	}
	if m.AllocsPerOp != 0 {
		t.Fatalf("BenchmarkControllerIssueScan budget must be 0 allocs/op, ledger says %d", m.AllocsPerOp)
	}
	res := testing.Benchmark(BenchmarkControllerIssueScan)
	t.Logf("BenchmarkControllerIssueScan: %d ns/op, %d allocs/op", res.NsPerOp(), res.AllocsPerOp())
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("controller issue scan allocates: %d allocs/op", allocs)
	}
}
