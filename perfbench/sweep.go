package main

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"quicscan/internal/campaign"
	"quicscan/internal/internet"
	"quicscan/internal/zmapquic"
)

// The sweep workload: a stateless forced-version-negotiation sweep of
// a /11 that encloses the universe's whole IPv4 allocation and is
// otherwise dark, walked by campaign.Engine (sweepShards shards,
// sweepWorkers workers, no rate limit) calling
// zmapquic.Scanner.SendProbe, with one CollectResponses collector.
// sweepScale puts about 0.07% of the swept addresses behind a
// responding deployment, the paper's IPv4 hit ratio.
const (
	sweepScale    = 1700
	sweepShards   = 2
	sweepWorkers  = 2
	sweepCooldown = 100 * time.Millisecond
	// sweepSample times one SendProbe call per this many addresses.
	sweepSample = 64
)

var sweepPrefix = netip.MustParsePrefix("11.0.0.0/11")

// sweepEnv is one set-up of the sweep workload.
type sweepEnv struct {
	u *internet.Universe
	// visible is the ground truth: ZMap-visible IPv4 deployments
	// inside the swept prefix.
	visible map[netip.Addr]bool
}

func setupSweep(seed uint64) (*sweepEnv, setupTiming, error) {
	var st setupTiming
	t0 := time.Now()
	u, err := buildAndStart(internet.Spec{Seed: seed, Scale: sweepScale}, internet.StartOptions{}, &st)
	if err != nil {
		return nil, st, err
	}
	e := &sweepEnv{u: u, visible: make(map[netip.Addr]bool)}
	for _, d := range u.Deployments {
		if !d.Addr.Is4() {
			continue
		}
		if !sweepPrefix.Contains(d.Addr) {
			u.Stop()
			return nil, st, fmt.Errorf("deployment %v lies outside the swept prefix %v", d.Addr, sweepPrefix)
		}
		if d.ZMapVisible {
			e.visible[d.Addr] = true
		}
	}
	// The warm-up sweeps only the allocated /24s (every hit, a small
	// share of the addresses) through the same engine and collector.
	warm := zmapquic.NewSweep(seed, u.V4Prefixes())
	if _, err := sweepPass(e, warm, nil, 0); err != nil {
		u.Stop()
		return nil, st, err
	}
	st.total = time.Since(t0)
	return e, st, nil
}

// sweepResult is one sweep pass.
type sweepResult struct {
	wall, run  time.Duration
	addrs      uint64
	hits       map[netip.Addr]bool
	latencies  []time.Duration // sampled SendProbe calls
	probeBusy  time.Duration   // summed probe-callback time (traced)
	probeCalls int64
}

// sweepPass sweeps once: fresh socket and scanner, engine plus
// collector, then the cooldown. With a tracer the DialUDP call,
// Engine.Run, every probe callback and every collector callback are
// timed; the callbacks are aggregated, not one span per probe.
func sweepPass(e *sweepEnv, sw *zmapquic.Sweep, tr *tracer, parent int) (*sweepResult, error) {
	var dial, probes, collect aggregate
	start := time.Now()
	t0 := time.Now()
	pc, err := e.u.Net.DialUDP()
	if err != nil {
		return nil, err
	}
	dial.add(time.Since(t0))
	defer pc.Close()
	s := &zmapquic.Scanner{Conn: pc}

	res := &sweepResult{hits: make(map[netip.Addr]bool)}
	var mu sync.Mutex
	// One address in sweepSample has its SendProbe call timed: enough
	// samples for the percentiles without a clock read per probe.
	probe := func(_ context.Context, addr netip.Addr) error {
		if addr.As4()[3]%sweepSample != 0 {
			_, err := s.SendProbe(addr)
			return err
		}
		t := time.Now()
		_, err := s.SendProbe(addr)
		d := time.Since(t)
		mu.Lock()
		res.latencies = append(res.latencies, d)
		mu.Unlock()
		return err
	}
	if tr != nil {
		untraced := probe
		probe = func(ctx context.Context, addr netip.Addr) error {
			t := time.Now()
			err := untraced(ctx, addr)
			probes.add(time.Since(t))
			return err
		}
	}

	// Only the collector goroutine touches hits.
	onResponse := func(r zmapquic.Result) { res.hits[r.Addr] = true }
	collectFn := onResponse
	if tr != nil {
		collectFn = func(r zmapquic.Result) {
			t := time.Now()
			onResponse(r)
			collect.add(time.Since(t))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		s.CollectResponses(ctx, collectFn)
	}()

	eng, err := campaign.New(campaign.Config{
		Sweep:   sw,
		Shards:  sweepShards,
		Workers: sweepWorkers,
		Probe:   probe,
		Sink:    campaign.NullSink{},
	})
	if err != nil {
		cancel()
		<-collected
		return nil, err
	}
	runRegion := tr.begin("campaign.Engine.Run", parent)
	runStart := time.Now()
	err = eng.Run(context.Background())
	res.run = time.Since(runStart)
	runRegion.end()
	time.Sleep(sweepCooldown)
	cancel()
	<-collected
	res.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.addrs = eng.Progress().Probes
	if res.addrs != sw.Total() {
		return nil, fmt.Errorf("engine probed %d of %d addresses", res.addrs, sw.Total())
	}
	res.probeBusy, res.probeCalls = time.Duration(probes.busy.Load()), probes.n.Load()
	if tr != nil {
		end := time.Now()
		tr.flush("simnet.Network.DialUDP", parent, start, end, &dial)
		tr.flush("zmapquic.Scanner.SendProbe", runRegion.ID(), runStart, runStart.Add(res.run), &probes)
		tr.flush("zmapquic.CollectResponses.callback", parent, start, end, &collect)
	}
	return res, nil
}

// check compares a pass's hit set with the ground truth and returns
// the number of addresses checked and how many disagreed.
func (e *sweepEnv) check(hits map[netip.Addr]bool) (checked, failed int) {
	for a := range e.visible {
		checked++
		if !hits[a] {
			failed++
		}
	}
	for a := range hits {
		if !e.visible[a] {
			checked++
			failed++
		}
	}
	return checked, failed
}

func runSweep(o options) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var timings []setupTiming
	var env *sweepEnv
	for i := 0; i < setups; i++ {
		if env != nil {
			env.u.Stop()
		}
		runtime.GC()
		e, st, err := setupSweep(o.seed)
		if err != nil {
			return nil, fmt.Errorf("sweep set-up: %w", err)
		}
		env, timings = e, append(timings, st)
	}
	defer env.u.Stop()
	build, start, total := medianSetup(timings)
	out.e2e["setup_s"] = total
	runtime.GC()

	sw := zmapquic.NewSweep(o.seed, []netip.Prefix{sweepPrefix})
	var (
		walls, tracedWalls, runs []float64
		lat                      []time.Duration
		addrs                    uint64
		probeBusy, runBusy       time.Duration
		probeCalls               int64
		passes                   int
	)
	before := snapCounters()
	heap := watchHeap()
	p := readProbe()
	err := loop(o.seconds, minOps(o), func(i int) error {
		var ptr *tracer
		var pass *region
		if tr != nil && i%2 == 1 {
			ptr = tr
			pass = tr.begin("sweep.pass", 0)
		}
		r, err := sweepPass(env, sw, ptr, pass.ID())
		if err != nil {
			return err
		}
		pass.end()
		if ptr != nil {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
			probeBusy += r.probeBusy
			probeCalls += r.probeCalls
			runBusy += r.run
		} else {
			walls = append(walls, r.wall.Seconds())
		}
		runs = append(runs, r.run.Seconds())
		lat = append(lat, r.latencies...)
		addrs += r.addrs
		passes++
		c, f := env.check(r.hits)
		out.checked += c
		out.failed += f
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := since(p)
	peak := heap.stop()
	after := snapCounters()

	latMs := durationsMs(lat)
	var runTotal float64
	for _, r := range runs {
		runTotal += r
	}
	out.e2e["wall_s"] = mean(walls)
	out.e2e["ops_per_s"] = float64(addrs) / runTotal
	out.e2e["latency_p50_ms"] = quantile(latMs, 0.50)
	out.e2e["latency_p90_ms"] = quantile(latMs, 0.90)
	out.e2e["cpu_us_per_op"] = float64(w.cpu.Nanoseconds()) / 1e3 / float64(addrs)
	out.e2e["alloc_kb_per_op"] = float64(w.alloc) / 1024 / float64(addrs)
	out.e2e["peak_heap_mb"] = peak

	if tr == nil {
		return out, nil
	}
	L := out.layer
	L["internet.build_s"], L["internet.start_s"] = build, start
	L["fail_share"] = ratio(float64(out.failed), float64(out.checked))
	L["trace.overhead_share"] = ratio(mean(tracedWalls)-mean(walls), mean(walls))
	L["runtime.gc_cpu_share"] = w.gcShare
	L["runtime.sched_latency_p99_us"] = w.schedP99Micros
	kb, err := socketAllocKB(env.u.Net)
	if err != nil {
		return nil, err
	}
	L["simnet.socket_alloc_kb"] = kb
	L["simnet.delivered_per_op"] = ratio(after.delta(before, "simnet_delivered_total"), float64(addrs))
	L["simnet.dropped_per_op"] = ratio(after.delta(before, "simnet_lost_total")+after.delta(before, "simnet_mtu_dropped_total"), float64(addrs))

	probesSent := after.delta(before, "zmapquic_probes_sent_total")
	sendUs := float64(probeBusy.Nanoseconds()) / 1e3 / float64(probeCalls)
	L["zmapquic.send_us_per_probe"] = sendUs
	L["zmapquic.responses"] = after.delta(before, "zmapquic_responses_total") / float64(passes)
	L["zmapquic.invalid_responses"] = after.delta(before, "zmapquic_invalid_responses_total")
	batch := after.histDelta(before, "zmapquic_batch_size")
	L["zmapquic.batch_mean"] = ratio(batch.Sum, float64(batch.Count))
	L["netbatch.writes_per_probe"] = ratio(after.delta(before, "zmapquic_batch_flushes_total"), probesSent)
	L["campaign.run_s"] = mean(runs)
	// Engine overhead: worker time inside Engine.Run not spent in the
	// probe callback, per address.
	engineNs := float64(runBusy.Nanoseconds())*sweepWorkers - float64(probeBusy.Nanoseconds())
	L["campaign.overhead_ns_per_addr"] = engineNs / float64(probeCalls)
	L["campaign.probe_errors"] = after.delta(before, "campaign_probe_errors_total")

	spans := tr.all()
	passWall, n := sumNamed(spans, "sweep.pass")
	collectBusy, responses := sumNamed(spans, "zmapquic.CollectResponses.callback")
	perAddr := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(probeCalls) }
	sweepRow := rung("sweep (pass wall x workers)", perAddr(passWall)*sweepWorkers, "us/addr", nil, fmt.Sprintf("%d traced passes, cooldown %v each", n, sweepCooldown))
	engRow := rung("campaign.Engine.Run (x workers)", perAddr(runBusy)*sweepWorkers, "us/addr", &sweepRow, "")
	sendRow := rung("zmapquic.SendProbe (+netbatch)", sendUs, "us/addr", &engRow, fmt.Sprintf("%.3f WriteBatch calls per probe", L["netbatch.writes_per_probe"]))
	collRow := rung("CollectResponses callback", perAddr(collectBusy), "us/addr", &sweepRow, fmt.Sprintf("%d responses", responses))
	out.ladder = []ladderRow{sweepRow, engRow, sendRow, collRow}
	out.spans = spans

	out.off("dnsclient.resolve_s", "dnsclient.queries", "dnsclient.retries",
		"zmapquic.v4_s", "zmapquic.v6_s", "zmapquic.ablation_s",
		"tlsscan.altsvc_s", "tlsscan.tcp_s", "tlsscan.ok_share",
		"core.stateful_s", "core.timeout_wait_s", "core.cohort_barrier_s",
		"core.busy_ms_per_target", "core.success_p50_ms", "core.attempts_per_target", "core.certcache_hit_ratio",
		"quic.handshakes_ok", "quic.handshakes_failed", "quic.handshake_p50_ms", "quic.datagrams_per_handshake",
		"quic.bytes_per_handshake", "quic.retransmits", "quic.pto_fired", "quic.routing_misses", "quic.dropped_datagrams",
		"quiccrypto.initial_seal_open_ns", "quicwire.long_header_parse_ns", "transportparams.roundtrip_ns", "h3.qpack_roundtrip_ns",
		"quiccrypto.share_of_target", "quicwire.share_of_target", "transportparams.share_of_target", "h3.share_of_target",
		"fingerprint.probe_s", "migration.probe_s", "resumption.probe_s",
		"fingerprint.accuracy", "migration.accuracy", "resumption.accuracy",
		"experiments.render_ms", "experiments.idle_share", "experiments.phase_cover_share")
	return out, nil
}
