package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/internet"
)

// The scan workload: a closed loop of scanWorkers callers, each
// handing the next target to core.Scanner.ScanTarget as soon as its
// previous call returns, over answering deployments of a larger
// universe. Silent (ghost-timeout) deployments are left out so that
// the loop measures CPU-bound handshake work, not the 2 s timer.
const (
	scanScale   = 2048
	scanWorkers = 2
	// scanSNIPerAddr caps the (address, domain) SNI pairs per
	// deployment.
	scanSNIPerAddr = 4
)

// scanEnv is one set-up of the scan workload.
type scanEnv struct {
	u       *internet.Universe
	sc      *core.Scanner
	targets []core.Target
	want    []core.Outcome
	dials   aggregate // DialPacket calls, traced runs only
}

func (e *scanEnv) close() {
	e.sc.Close()
	e.u.Stop()
}

// scanQuota fixes how many targets of each expected outcome one pass
// scans: 1,347 targets, 31% of them successes. A universe of this
// scale has about 2,050 answering targets, and their success share
// differs by seed (34% to 38% for seeds 1 to 5). A success costs
// several times a refusal, so a fixed mix keeps the pass cost a
// property of the code, not of the universe's composition.
var scanQuota = []struct {
	outcome core.Outcome
	n       int
}{
	{core.OutcomeSuccess, 422},
	{core.OutcomeCryptoError, 832},
	{core.OutcomeVersionMismatch, 93},
}

// scanTargets draws a pass's targets from the answering deployments'
// targets (each no-SNI, plus up to scanSNIPerAddr (address, domain)
// pairs): scanQuota of each expected outcome, in a seeded order, with
// the outcome each target's behavior implies.
func scanTargets(u *internet.Universe, seed uint64) ([]core.Target, []core.Outcome, error) {
	byOutcome := make(map[core.Outcome][]core.Target)
	add := func(t core.Target, b internet.Behavior) {
		o := expectedOutcome(b, t.SNI != "")
		byOutcome[o] = append(byOutcome[o], t)
	}
	for _, d := range u.Deployments {
		if d.Behavior == internet.BehaviorGhostTimeout {
			continue
		}
		add(core.Target{Addr: d.Addr}, d.Behavior)
		for i, dom := range d.Domains {
			if i == scanSNIPerAddr {
				break
			}
			add(core.Target{Addr: d.Addr, SNI: dom}, d.Behavior)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5ca9))
	type pick struct {
		t core.Target
		o core.Outcome
	}
	var picks []pick
	for _, q := range scanQuota {
		pool := byOutcome[q.outcome]
		if len(pool) == 0 {
			return nil, nil, fmt.Errorf("universe has no %s targets", q.outcome)
		}
		// A universe with fewer targets of a kind than the quota scans
		// some of them twice in a pass.
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for i := 0; i < q.n; i++ {
			picks = append(picks, pick{pool[i%len(pool)], q.outcome})
		}
	}
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	ts := make([]core.Target, len(picks))
	want := make([]core.Outcome, len(picks))
	for i, p := range picks {
		ts[i], want[i] = p.t, p.o
	}
	return ts, want, nil
}

// expectedOutcome is the stateful outcome a deployment's ground-truth
// behavior implies for a scan with or without SNI.
func expectedOutcome(b internet.Behavior, sni bool) core.Outcome {
	switch b {
	case internet.BehaviorActive:
		return core.OutcomeSuccess
	case internet.BehaviorRequireSNI:
		if sni {
			return core.OutcomeSuccess
		}
		return core.OutcomeCryptoError
	case internet.BehaviorGhost0x128:
		return core.OutcomeCryptoError
	case internet.BehaviorGhostTimeout:
		return core.OutcomeTimeout
	case internet.BehaviorMismatch:
		return core.OutcomeVersionMismatch
	}
	return core.OutcomeOther
}

func setupScan(seed uint64, tr *tracer) (*scanEnv, setupTiming, error) {
	var st setupTiming
	t0 := time.Now()
	u, err := buildAndStart(internet.Spec{Seed: seed, Scale: scanScale}, internet.StartOptions{Stateful: true}, &st)
	if err != nil {
		return nil, st, err
	}
	e := &scanEnv{u: u}
	if e.targets, e.want, err = scanTargets(u, seed); err != nil {
		u.Stop()
		return nil, st, err
	}
	e.sc = &core.Scanner{
		DialPacket: func() (net.PacketConn, error) {
			if tr == nil {
				return u.Net.DialUDP()
			}
			t := time.Now()
			defer func() { e.dials.add(time.Since(t)) }()
			return u.Net.DialUDP()
		},
		RootCAs: u.RootCAs(),
		Timeout: 2 * time.Second,
	}
	// The warm-up pass opens the socket pool and fills the scanner's
	// certificate-verification memo, as any long-running scan would.
	scanPass(e, nil, 0)
	st.total = time.Since(t0)
	return e, st, nil
}

// passResult is one closed-loop pass over every target.
type passResult struct {
	wall      time.Duration
	latencies []time.Duration
	mismatch  int
	success   []time.Duration // ScanTarget time of successful targets
	attempts  int
}

// scanPass runs the closed loop once. With a tracer, every ScanTarget
// call becomes a span under parent.
func scanPass(e *scanEnv, tr *tracer, parent int) *passResult {
	ctx := context.Background()
	res := &passResult{latencies: make([]time.Duration, len(e.targets))}
	outcomes := make([]core.Outcome, len(e.targets))
	attempts := make([]int, len(e.targets))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < scanWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(e.targets) {
					return
				}
				t0 := time.Now()
				r := e.sc.ScanTarget(ctx, e.targets[i])
				t1 := time.Now()
				tr.call("core.ScanTarget", parent, t0, t1)
				res.latencies[i] = t1.Sub(t0)
				outcomes[i] = r.Outcome
				attempts[i] = r.Attempts
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i, o := range outcomes {
		if o != e.want[i] {
			res.mismatch++
		}
		if o == core.OutcomeSuccess {
			res.success = append(res.success, res.latencies[i])
		}
		res.attempts += attempts[i]
	}
	return res
}

func runScan(o options) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var timings []setupTiming
	var env *scanEnv
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		e, st, err := setupScan(o.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("scan set-up: %w", err)
		}
		env, timings = e, append(timings, st)
	}
	defer env.close()
	build, start, total := medianSetup(timings)
	out.e2e["setup_s"] = total
	runtime.GC()

	var (
		walls, tracedWalls []float64
		lat, success       []time.Duration
		ops, attempts      int
	)
	before := snapCounters()
	heap := watchHeap()
	p := readProbe()
	err := loop(o.seconds, minOps(o), func(i int) error {
		// Traced runs alternate untraced and traced passes; the gap
		// between the two means is the tracing overhead.
		var ptr *tracer
		var pass *region
		if tr != nil && i%2 == 1 {
			ptr = tr
			pass = tr.begin("scan.pass", 0)
		}
		r := scanPass(env, ptr, pass.ID())
		pass.end()
		if ptr != nil {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
		} else {
			walls = append(walls, r.wall.Seconds())
		}
		lat = append(lat, r.latencies...)
		success = append(success, r.success...)
		ops += len(r.latencies)
		attempts += r.attempts
		out.checked += len(r.latencies)
		out.failed += r.mismatch
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := since(p)
	peak := heap.stop()
	after := snapCounters()

	// A pass that a GC cycle lands in runs up to twice as long as one
	// it misses, so pass times are summed over the whole run rather
	// than taking their median.
	wall := mean(walls)
	latMs := durationsMs(lat)
	out.e2e["wall_s"] = wall
	out.e2e["ops_per_s"] = float64(len(env.targets)) / wall
	out.e2e["latency_p50_ms"] = quantile(latMs, 0.50)
	out.e2e["latency_p90_ms"] = quantile(latMs, 0.90)
	out.e2e["cpu_us_per_op"] = float64(w.cpu.Microseconds()) / float64(ops)
	out.e2e["alloc_kb_per_op"] = float64(w.alloc) / 1024 / float64(ops)
	out.e2e["peak_heap_mb"] = peak

	if tr == nil {
		return out, nil
	}
	L := out.layer
	L["internet.build_s"], L["internet.start_s"] = build, start
	L["fail_share"] = ratio(float64(out.failed), float64(out.checked))
	L["trace.overhead_share"] = ratio(mean(tracedWalls)-wall, wall)
	L["runtime.gc_cpu_share"] = w.gcShare
	L["runtime.sched_latency_p99_us"] = w.schedP99Micros
	kb, err := socketAllocKB(env.u.Net)
	if err != nil {
		return nil, err
	}
	L["simnet.socket_alloc_kb"] = kb
	L["simnet.delivered_per_op"] = ratio(after.delta(before, "simnet_delivered_total"), float64(ops))
	L["simnet.dropped_per_op"] = ratio(after.delta(before, "simnet_lost_total")+after.delta(before, "simnet_mtu_dropped_total"), float64(ops))

	spans := tr.all()
	busy, calls := sumNamed(spans, "core.ScanTarget")
	busyMs := float64(busy.Microseconds()) / 1000 / float64(calls)
	L["core.busy_ms_per_target"] = busyMs
	L["core.success_p50_ms"] = quantile(durationsMs(success), 0.5)
	L["core.attempts_per_target"] = ratio(float64(attempts), float64(ops))
	hits := after.delta(before, "core_certcache_hits_total")
	L["core.certcache_hit_ratio"] = ratio(hits, hits+after.delta(before, "core_certcache_misses_total"))
	hs := quicLayer(L, before, after)

	micro, err := measureMicro()
	if err != nil {
		return nil, err
	}
	passWall, passes := sumNamed(spans, "scan.pass")
	scanRow := rung("scan (pass wall x workers)", float64(passWall.Microseconds())/1000*scanWorkers/float64(calls), "ms/target", nil, fmt.Sprintf("%d traced passes", passes))
	coreRow := rung("core.ScanTarget", busyMs, "ms/target", &scanRow, "")
	quicRow := rung("quic handshakes", hs.sumMs/float64(ops), "ms/target", &coreRow, "quic_handshake_ms sum over all targets")
	out.ladder = append(out.ladder, scanRow, coreRow, quicRow)
	out.ladder = append(out.ladder, microRows(L, micro, &coreRow, &quicRow, busyMs, hs)...)
	out.ladder = append(out.ladder, rung("DialPacket (socket pool)", float64(env.dials.busy.Load())/1e6/float64(calls), "ms/target", &coreRow, fmt.Sprintf("%d dials", env.dials.n.Load())))
	out.spans = spans

	out.off("dnsclient.resolve_s", "dnsclient.queries", "dnsclient.retries",
		"zmapquic.send_us_per_probe", "zmapquic.responses", "zmapquic.invalid_responses",
		"zmapquic.batch_mean", "netbatch.writes_per_probe",
		"zmapquic.v4_s", "zmapquic.v6_s", "zmapquic.ablation_s",
		"campaign.run_s", "campaign.overhead_ns_per_addr", "campaign.probe_errors",
		"tlsscan.altsvc_s", "tlsscan.tcp_s", "tlsscan.ok_share",
		"core.stateful_s", "core.timeout_wait_s", "core.cohort_barrier_s",
		"fingerprint.probe_s", "migration.probe_s", "resumption.probe_s",
		"fingerprint.accuracy", "migration.accuracy", "resumption.accuracy",
		"experiments.render_ms", "experiments.idle_share", "experiments.phase_cover_share")
	return out, nil
}

// handshakeStats are the quic-layer figures the ladder reuses: the
// summed time of completed handshakes and the datagrams per handshake.
type handshakeStats struct {
	sumMs, datagrams float64
}

// quicLayer fills the quic.* metrics from the telemetry registry's
// growth between two snapshots, per completed or failed handshake.
func quicLayer(L map[string]float64, before, after counters) handshakeStats {
	ok := after.delta(before, `quic_handshakes_total{result="success"}`)
	failed := after.delta(before, `quic_handshakes_total{result="timeout"}`) +
		after.delta(before, `quic_handshakes_total{result="version_mismatch"}`) +
		after.delta(before, `quic_handshakes_total{result="error"}`)
	all := ok + failed
	h := after.histDelta(before, "quic_handshake_ms")
	dgrams := after.delta(before, "quic_datagrams_in_total") + after.delta(before, "quic_datagrams_out_total")
	bytes := after.delta(before, "quic_bytes_in_total") + after.delta(before, "quic_bytes_out_total")
	L["quic.handshakes_ok"] = ok
	L["quic.handshakes_failed"] = failed
	L["quic.handshake_p50_ms"] = h.Quantile(0.5)
	L["quic.datagrams_per_handshake"] = ratio(dgrams, all)
	L["quic.bytes_per_handshake"] = ratio(bytes, all)
	L["quic.retransmits"] = after.delta(before, "quic_retransmits_total")
	L["quic.pto_fired"] = after.delta(before, "quic_pto_fired_total")
	L["quic.routing_misses"] = after.delta(before, "quic_routing_misses_total")
	L["quic.dropped_datagrams"] = after.delta(before, "quic_dropped_datagrams_total")
	return handshakeStats{sumMs: h.Sum, datagrams: ratio(dgrams, all)}
}

// microRows reports the building-block timings and their ladder rows.
// Every datagram of a handshake is sealed by one side and opened by
// the other, so datagrams x seal/open time prices the packet crypto
// of one target; the other blocks run about once per target.
func microRows(L map[string]float64, m microTimings, coreRow, quicRow *ladderRow, busyMs float64, hs handshakeStats) []ladderRow {
	L["quiccrypto.initial_seal_open_ns"] = m.sealOpen
	L["quicwire.long_header_parse_ns"] = m.headerParse
	L["transportparams.roundtrip_ns"] = m.tpRoundtrip
	L["h3.qpack_roundtrip_ns"] = m.qpackRoundtrip
	cryptoMs := hs.datagrams * m.sealOpen / 1e6
	L["quiccrypto.share_of_target"] = ratio(cryptoMs, busyMs)
	L["quicwire.share_of_target"] = ratio(hs.datagrams*m.headerParse/1e6, busyMs)
	L["transportparams.share_of_target"] = ratio(m.tpRoundtrip/1e6, busyMs)
	L["h3.share_of_target"] = ratio(m.qpackRoundtrip/1e6, busyMs)
	return []ladderRow{
		rung("quiccrypto (datagrams x seal/open)", cryptoMs, "ms/target", quicRow, fmt.Sprintf("%.1f datagrams x %.0f ns", hs.datagrams, m.sealOpen)),
		rung("quicwire (datagrams x header parse)", hs.datagrams*m.headerParse/1e6, "ms/target", coreRow, fmt.Sprintf("%.0f ns per parse", m.headerParse)),
		rung("transportparams (marshal+parse)", m.tpRoundtrip/1e6, "ms/target", coreRow, fmt.Sprintf("%.0f ns, once per target", m.tpRoundtrip)),
		rung("h3 (QPACK HEAD encode+decode)", m.qpackRoundtrip/1e6, "ms/target", coreRow, fmt.Sprintf("%.0f ns, once per target", m.qpackRoundtrip)),
	}
}
