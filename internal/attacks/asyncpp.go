package attacks

import (
	"fmt"

	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/rng"
	"streamline/internal/sched"
	"streamline/internal/stats"
	"streamline/internal/syncch"
)

// AsyncPrimeProbe realizes the future-work direction the paper sketches in
// Section 5.2: applying Streamline's asynchronous, self-resetting protocol
// to a Prime+Probe channel, removing the shared-memory requirement.
//
// Sender and receiver agree on a sequence of LLC sets (a stride walk, for
// the same prefetcher-fooling reasons as Streamline's address pattern) and
// transmit one bit per set. The receiver keeps every set primed with its
// own `ways` lines. To send a 0, the sender accesses a conflicting address
// of the current set, evicting one primed line; for a 1 it does nothing.
// The receiver follows behind, timing a probe of its lines: a slow probe
// (one DRAM miss among the hits) decodes 0. Crucially, the probe itself
// re-primes the set — reinstalling the missing line and aging out the
// sender's conflict line — so the set is reset for the next lap with no
// extra operations and no per-bit synchronization: the exact trick that
// makes Streamline fast, with conflicts instead of shared hits.
//
// The lap is one walk over all usable sets, so the sender-receiver gap is
// bounded by coarse synchronization at a fraction of the set count.
type AsyncPrimeProbe struct {
	m    *params.Machine
	h    *hier.Hierarchy
	x    *rng.Xoshiro
	sync *syncch.Channel

	sets      int
	setStride int
	recvBase  mem.Addr
	sendBase  mem.Addr

	// probeBuf is the reused batch buffer for one set's prime lines.
	probeBuf []mem.Addr

	// SyncPeriod/SyncLead bound the gap (defaults: an eighth of a lap).
	SyncPeriod int
	SyncLead   int
	// rawThreshold decodes a probe's summed latency.
	rawThreshold int

	sCore, rCore int
}

// newAsyncPrimeProbe builds the channel on h (see Build). The protocol is
// asynchronous, so s.Window and s.AlignJitter do not apply.
func newAsyncPrimeProbe(s Spec, h *hier.Hierarchy) (*AsyncPrimeProbe, error) {
	m := h.Machine()
	alloc := mem.NewAllocator(m.PageSize)
	sets := m.LLC.Sets()
	setStride := sets * m.LLC.LineBytes
	// Receiver buffer: ways lines per set = one full LLC image. Sender:
	// four candidate conflict lines per set — the sender picks among them
	// pseudo-randomly so that runs of 0-bits never produce the constant
	// address deltas a stride prefetcher could learn (the asynchronous
	// analogue of Streamline's prefetcher-fooling pattern).
	recvBuf := alloc.Alloc(setStride * m.LLC.Ways)
	sendBuf := alloc.Alloc(setStride * senderCandidates)
	syncReg := alloc.Alloc(syncch.RegionBytes(h))
	sc, err := syncch.New(h, syncReg)
	if err != nil {
		return nil, err
	}
	missMean := m.Lat.LLCHit + m.Lat.DRAMBase
	a := &AsyncPrimeProbe{
		m:            m,
		h:            h,
		x:            rng.New(s.Seed ^ 0xa5ca),
		sync:         sc,
		sets:         sets,
		setStride:    setStride,
		recvBase:     recvBuf.Base,
		sendBase:     sendBuf.Base,
		probeBuf:     make([]mem.Addr, m.LLC.Ways),
		SyncPeriod:   sets / 2,
		SyncLead:     sets / 16,
		rawThreshold: m.LLC.Ways*m.Lat.LLCHit + (missMean-m.Lat.LLCHit)/2,
		sCore:        0,
		rCore:        1,
	}
	return a, nil
}

// Name implements Attack.
func (a *AsyncPrimeProbe) Name() string { return "async-prime+probe" }

// Model implements Attack.
func (a *AsyncPrimeProbe) Model() string { return Model(a.Name()) }

// senderCandidates is how many alternative conflict lines the sender keeps
// per set.
const senderCandidates = 4

// setOf maps bit i to an LLC set: a stride-3 walk (3 is odd, hence coprime
// with the power-of-two set count, so the walk has full period).
func (a *AsyncPrimeProbe) setOf(i int64) int {
	return int(uint64(i) * 3 % uint64(a.sets))
}

// conflictLine returns the sender's conflict address for bit i: one of the
// set's candidates, chosen by a hash of i.
func (a *AsyncPrimeProbe) conflictLine(i int64) mem.Addr {
	cand := int(uint64(i) * 2654435761 >> 16 % senderCandidates)
	return a.sendBase + mem.Addr(cand*a.setStride+a.setOf(i)*a.m.LLC.LineBytes)
}

// recvLine returns the receiver's way-th prime line of set s.
func (a *AsyncPrimeProbe) recvLine(s, way int) mem.Addr {
	return a.recvBase + mem.Addr(way*a.setStride+s*a.m.LLC.LineBytes)
}

// primeLines fills probeBuf with set s's prime lines and returns it.
func (a *AsyncPrimeProbe) primeLines(s int) []mem.Addr {
	for w := range a.probeBuf {
		a.probeBuf[w] = a.recvLine(s, w)
	}
	return a.probeBuf
}

// appSender is the transmitting agent.
type appSender struct {
	a         *AsyncPrimeProbe
	tx        []byte
	i         int64
	recvI     *int64
	waiting   bool
	waitStart uint64
}

func (s *appSender) Name() string { return "asyncpp-sender" }

func (s *appSender) Step(now uint64) (uint64, bool) {
	a := s.a
	if s.waiting {
		ok, cost := a.sync.Poll(a.sCore, now)
		if ok || *s.recvI >= s.i-int64(a.SyncLead) || now+cost-s.waitStart > 20_000_000 {
			s.waiting = false
		}
		return cost, false
	}
	if s.i >= int64(len(s.tx)) {
		return 0, true
	}
	lat := a.m.Lat
	cost := uint64(lat.TimerOverhead + 2*lat.LoopOverhead)
	if s.tx[s.i] == 0 {
		r := a.h.Access(a.sCore, a.conflictLine(s.i), now+cost)
		cost += uint64(r.Latency)
	}
	s.i++
	if p := int64(a.SyncPeriod); p > 0 && s.i%p == 0 && s.i < int64(len(s.tx)) {
		s.waiting = true
		s.waitStart = now + cost
	}
	return cost, false
}

// appReceiver probes (and thereby re-primes) one set per bit.
type appReceiver struct {
	a         *AsyncPrimeProbe
	rx        []byte
	i         int64
	Bits      int64
	syncBurst int
	start     uint64
	end       uint64
	started   bool
}

func (r *appReceiver) Name() string { return "asyncpp-receiver" }

func (r *appReceiver) Step(now uint64) (uint64, bool) {
	a := r.a
	if !r.started {
		r.started = true
		r.start = now
	}
	lat := a.m.Lat
	s := a.setOf(r.i)
	cost := uint64(2*lat.TimerOverhead + lat.LoopOverhead)
	lines := a.primeLines(s)
	clk := hier.BatchClock{Div: a.m.MLP}
	probe := a.h.AccessBatch(a.rCore, lines, now+cost, clk)
	cost += probe.Cost
	sum := int(probe.LatencySum) + int(a.x.Norm()*10)
	if sum >= a.rawThreshold {
		r.rx[r.i] = 0 // a conflict evicted one of our lines
		// Repair: the probe's reinstall may have victimized another of
		// our own lines instead of the sender's conflict line. Re-walk
		// the set until it holds only our lines again — each pass ages
		// the never-hit conflict line toward eviction, so this converges
		// in a pass or two. Only 0-bits pay this cost.
		for pass := 0; pass < 4; pass++ {
			res := a.h.AccessBatch(a.rCore, lines, now+cost, clk)
			cost += res.Cost
			if res.Served[hier.DRAM] == 0 {
				break
			}
		}
	} else {
		r.rx[r.i] = 1
	}
	if p := int64(a.SyncPeriod); p > 0 && r.i%p == p-int64(a.SyncLead) {
		r.syncBurst = 48
	}
	if r.syncBurst > 0 {
		r.syncBurst--
		cost += a.sync.Signal(a.rCore, now+cost)
	}
	r.i++
	r.Bits = r.i
	if r.i >= int64(len(r.rx)) {
		r.end = now + cost
		return cost, true
	}
	return cost, false
}

// Run implements Attack.
func (a *AsyncPrimeProbe) Run(bits []byte) (*Result, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("asyncpp: empty payload")
	}
	// Initial prime: the receiver fills every set with its lines before
	// transmission starts (part of setup, like Streamline's mmap walk), all
	// issued at time zero.
	for s := 0; s < a.sets; s++ {
		a.h.AccessBatch(a.rCore, a.primeLines(s), 0, hier.BatchClock{Hold: true})
	}

	rcv := &appReceiver{a: a, rx: make([]byte, len(bits))}
	snd := &appSender{a: a, tx: bits, recvI: &rcv.Bits}

	var sc sched.Scheduler
	sc.MaxSteps = uint64(len(bits))*64 + 1<<22
	sc.Add(snd, 0)
	// The receiver trails by a few hundred bits.
	sc.Add(rcv, uint64(a.SyncLead)*200)
	if _, err := sc.Run(); err != nil {
		return nil, err
	}

	br, err := stats.Compare(bits, rcv.rx)
	if err != nil {
		return nil, err
	}
	res := &Result{Bits: len(bits), Cycles: rcv.end - rcv.start, Errors: br}
	secs := float64(res.Cycles) / (float64(a.m.FreqMHz) * 1e6)
	if secs > 0 {
		res.BitRateKBps = float64(len(bits)) / 8192.0 / secs
	}
	return res, nil
}
