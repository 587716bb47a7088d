package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/experiments"
	"quicscan/internal/fingerprint"
	"quicscan/internal/internet"
	"quicscan/internal/migration"
	"quicscan/internal/resumption"
	"quicscan/internal/tlsscan"
	"quicscan/internal/zmapquic"
)

// The campaign workload: one simulated week through experiments.Run,
// with the spec of the repository's BenchmarkFullCampaign (its first
// iteration's universe) and the three behavioral scans on, so that
// every scan layer runs. It is the user's end-to-end job and is
// timer-bound: stateful cohorts wait out 2 s handshake timeouts, and
// the behavioral probers wait for tickets, pings and rebinds.
//
// The universe seed is fixed rather than taken from --seed: at this
// scale the number of those timer barriers is a property of the
// universe (seeds 1 to 5 took 12.3 to 19.4 s), so a spread across
// seeds would measure universe composition, not the code.
const campaignSeed = 1

func campaignOptions() experiments.Options {
	return experiments.Options{
		Spec:        internet.Spec{Seed: campaignSeed, Scale: 32768, ASScale: 128, DomainScale: 131072},
		SkipWeekly:  true,
		Fingerprint: true,
		Migration:   true,
		Resumption:  true,
	}
}

// campaignTruth is the ground truth extracted from a universe built
// from the campaign's spec: universes are deterministic in their spec,
// so it describes the universe Run builds for itself.
type campaignTruth struct {
	byAddr map[netip.Addr]*internet.Deployment
	active int // deployments the behavioral scans classify
}

func extractTruth(u *internet.Universe) *campaignTruth {
	t := &campaignTruth{byAddr: make(map[netip.Addr]*internet.Deployment, len(u.Deployments))}
	for _, d := range u.Deployments {
		t.byAddr[d.Addr] = d
		if d.Behavior == internet.BehaviorActive {
			t.active++
		}
	}
	return t
}

// setupCampaign builds and starts the campaign's universe, extracts
// its ground truth and warms the first and the stateful phase: one
// HTTPS-record resolution of every input list and one scan of every
// deployment that completes handshakes.
func setupCampaign() (*campaignTruth, setupTiming, error) {
	var st setupTiming
	t0 := time.Now()
	spec := campaignOptions().Spec
	u, err := buildAndStart(spec, internet.StartOptions{Stateful: true, Web: true}, &st)
	if err != nil {
		return nil, st, err
	}
	defer u.Stop()
	truth := extractTruth(u)
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    2 * time.Second,
		Workers:    16,
	}
	defer sc.Close()
	cl := &dnsclient.Client{Server: net.UDPAddrFromAddrPort(internet.DNSAddr), DialPacket: sc.DialPacket, Timeout: 2 * time.Second}
	for _, src := range sortedKeys(u.SourceLists) {
		for _, r := range cl.ResolveBatch(context.Background(), u.SourceLists[src], dnswire.TypeHTTPS, 64) {
			if r.Err != nil && !errors.Is(r.Err, dnsclient.ErrNXDomain) {
				return nil, st, fmt.Errorf("warm-up resolution of %s: %w", r.Name, r.Err)
			}
		}
	}
	var warm []core.Target
	for _, d := range u.Deployments {
		if (d.Behavior == internet.BehaviorActive || d.Behavior == internet.BehaviorRequireSNI) && len(d.Domains) > 0 {
			warm = append(warm, core.Target{Addr: d.Addr, SNI: d.Domains[0]})
		}
	}
	for _, r := range sc.Scan(context.Background(), warm) {
		if r.Outcome != core.OutcomeSuccess {
			return nil, st, fmt.Errorf("warm-up scan of %v: %s", r.Target.Addr, r.Outcome)
		}
	}
	st.total = time.Since(t0)
	return truth, st, nil
}

// check compares a report with the ground truth: every stateful
// outcome against the deployment's behavior, every behavioral verdict
// against its quirk, and the ZMap hits against ZMapVisible.
func (t *campaignTruth) check(rep *experiments.Report) (checked, failed int) {
	cohorts := [][]core.Result{rep.StatefulNoSNIV4, rep.StatefulSNIV4, rep.StatefulNoSNIV6, rep.StatefulSNIV6}
	for _, cohort := range cohorts {
		for _, r := range cohort {
			checked++
			d := t.byAddr[r.Target.Addr]
			if d == nil || r.Outcome != expectedOutcome(d.Behavior, r.Target.SNI != "") {
				failed++
			}
		}
	}

	// Each behavioral scan classifies every active deployment once.
	_, migOK := migrationTally(rep)
	_, resOK := resumptionTally(rep)
	checked += 3 * t.active
	failed += 3*t.active - rep.FingerprintConfusion.Correct() - migOK - resOK

	wd := rep.Headline()
	v6targets := make(map[netip.Addr]bool)
	for _, a := range rep.Universe.IPv6Hitlist {
		v6targets[a] = true
	}
	for a := range wd.V6.DomainsByAddr {
		v6targets[a] = true
	}
	for a, d := range t.byAddr {
		if !d.ZMapVisible {
			continue
		}
		var hit bool
		if a.Is4() {
			_, hit = wd.V4.ZMap[a]
		} else if v6targets[a] {
			_, hit = wd.V6.ZMap[a]
		} else {
			continue
		}
		checked++
		if !hit {
			failed++
		}
	}
	for _, disc := range []map[netip.Addr]bool{addrSet(wd.V4.ZMap), addrSet(wd.V6.ZMap)} {
		for a := range disc {
			if d := t.byAddr[a]; d == nil || !d.ZMapVisible {
				checked++
				failed++
			}
		}
	}
	return checked, failed
}

// migrationTally counts the migration table's targets and correct
// verdicts.
func migrationTally(rep *experiments.Report) (targets, correct int) {
	for _, row := range rep.MigrationTable {
		targets, correct = targets+row.Targets, correct+row.Correct()
	}
	return targets, correct
}

// resumptionTally counts the resumption table's targets and correct
// verdicts.
func resumptionTally(rep *experiments.Report) (targets, correct int) {
	for _, row := range rep.ResumptionTable {
		targets, correct = targets+row.Targets, correct+row.Correct()
	}
	return targets, correct
}

// addrSet returns the set of m's keys.
func addrSet[V any](m map[netip.Addr]V) map[netip.Addr]bool {
	out := make(map[netip.Addr]bool, len(m))
	for a := range m {
		out[a] = true
	}
	return out
}

func runCampaign(o options) (*outcome, error) {
	out := newOutcome()
	var timings []setupTiming
	var truth *campaignTruth
	for i := 0; i < setups; i++ {
		runtime.GC()
		t, st, err := setupCampaign()
		if err != nil {
			return nil, fmt.Errorf("campaign set-up: %w", err)
		}
		truth, timings = t, append(timings, st)
	}
	build, start, total := medianSetup(timings)
	out.e2e["setup_s"] = total
	runtime.GC()
	if o.trace {
		return traceCampaign(out, truth, build, start)
	}

	// Each week starts from a collected heap, so one week's garbage is
	// not billed to the next; only the Run call is inside the window.
	var walls []float64
	var cpu time.Duration
	var alloc uint64
	heap := watchHeap()
	err := loop(o.seconds, 1, func(int) error {
		runtime.GC()
		p := readProbe()
		rep, err := experiments.Run(campaignOptions())
		if err != nil {
			return err
		}
		w := since(p)
		walls = append(walls, w.wall.Seconds())
		cpu += w.cpu
		alloc += w.alloc
		c, f := truth.check(rep)
		out.checked += c
		out.failed += f
		rep.Close()
		return nil
	})
	if err != nil {
		return nil, err
	}
	peak := heap.stop()
	ops := float64(len(walls))
	out.e2e["wall_s"] = mean(walls)
	out.e2e["ops_per_s"] = 1 / mean(walls)
	ms := make([]float64, len(walls))
	for i, w := range walls {
		ms[i] = w * 1000
	}
	out.e2e["latency_p50_ms"] = quantile(ms, 0.50)
	out.e2e["latency_p90_ms"] = quantile(ms, 0.90)
	out.e2e["cpu_us_per_op"] = float64(cpu.Microseconds()) / ops
	out.e2e["alloc_kb_per_op"] = float64(alloc) / 1024 / ops
	out.e2e["peak_heap_mb"] = peak
	return out, nil
}

// traceCampaign is the traced campaign run: one untraced Run as the
// overhead baseline, one Run timed as a whole, then a replay of each
// phase's public layer call on that Run's still-running headline
// universe, with the inputs the Run recorded.
func traceCampaign(out *outcome, truth *campaignTruth, build, start float64) (*outcome, error) {
	L := out.layer
	L["internet.build_s"], L["internet.start_s"] = build, start

	t0 := time.Now()
	base, err := experiments.Run(campaignOptions())
	if err != nil {
		return nil, err
	}
	baseWall := time.Since(t0)
	c, f := truth.check(base)
	out.checked, out.failed = out.checked+c, out.failed+f
	base.Close()
	runtime.GC()

	tr := newTracer()
	before := snapCounters()
	p := readProbe()
	runRegion := tr.begin("experiments.Run", 0)
	rep, err := experiments.Run(campaignOptions())
	if err != nil {
		return nil, err
	}
	run := runRegion.end()
	w := since(p)
	after := snapCounters()
	defer rep.Close()
	c, f = truth.check(rep)
	out.checked, out.failed = out.checked+c, out.failed+f

	runWall := run.dur()
	L["trace.overhead_share"] = ratio(runWall.Seconds()-baseWall.Seconds(), baseWall.Seconds())
	L["experiments.idle_share"] = 1 - ratio(run.CPU.Seconds(), runWall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	L["fail_share"] = ratio(float64(out.failed), float64(out.checked))
	L["runtime.gc_cpu_share"] = w.gcShare
	L["runtime.sched_latency_p99_us"] = w.schedP99Micros
	L["dnsclient.queries"] = after.delta(before, "dns_queries_total")
	L["dnsclient.retries"] = after.delta(before, "dns_query_retries_total")
	L["zmapquic.responses"] = after.delta(before, "zmapquic_responses_total")
	L["zmapquic.invalid_responses"] = after.delta(before, "zmapquic_invalid_responses_total")
	batch := after.histDelta(before, "zmapquic_batch_size")
	L["zmapquic.batch_mean"] = ratio(batch.Sum, float64(batch.Count))
	L["netbatch.writes_per_probe"] = ratio(after.delta(before, "zmapquic_batch_flushes_total"), after.delta(before, "zmapquic_probes_sent_total"))
	L["simnet.delivered_per_op"] = after.delta(before, "simnet_delivered_total")
	L["simnet.dropped_per_op"] = after.delta(before, "simnet_lost_total") + after.delta(before, "simnet_mtu_dropped_total")
	quicLayer(L, before, after)
	L["fingerprint.accuracy"] = rep.FingerprintConfusion.Accuracy()
	mig, migOK := migrationTally(rep)
	res, resOK := resumptionTally(rep)
	L["migration.accuracy"] = ratio(float64(migOK), float64(mig))
	L["resumption.accuracy"] = ratio(float64(resOK), float64(res))

	rp := &replay{tr: tr, u: rep.Universe, rep: rep}
	rp.run()
	if rp.err != nil {
		return nil, rp.err
	}
	kb, err := socketAllocKB(rep.Universe.Net)
	if err != nil {
		return nil, err
	}
	L["simnet.socket_alloc_kb"] = kb
	for k, v := range rp.layer {
		L[k] = v
	}

	spans := tr.all()
	runRow := rung("experiments.Run (wall)", runWall.Seconds(), "s", nil, fmt.Sprintf("cpu %.2f s, idle %.0f%%", run.CPU.Seconds(), 100*L["experiments.idle_share"]))
	out.ladder = []ladderRow{runRow}
	var phases time.Duration
	for _, s := range spans {
		if s.Parent == rp.root {
			phases += s.dur()
			out.ladder = append(out.ladder, rung("  replay "+s.Name, s.dur().Seconds(), "s", &runRow, fmt.Sprintf("cpu %.3f s", s.CPU.Seconds())))
		}
	}
	L["experiments.phase_cover_share"] = ratio(phases.Seconds(), runWall.Seconds())
	out.ladder = append(out.ladder, rung("sum of replayed phases", phases.Seconds(), "s", &runRow, "phase_cover_share"))
	out.spans = spans

	out.off("zmapquic.send_us_per_probe", "campaign.run_s", "campaign.overhead_ns_per_addr", "campaign.probe_errors",
		"quiccrypto.initial_seal_open_ns", "quicwire.long_header_parse_ns", "transportparams.roundtrip_ns", "h3.qpack_roundtrip_ns",
		"quiccrypto.share_of_target", "quicwire.share_of_target", "transportparams.share_of_target", "h3.share_of_target")
	return out, nil
}

// replay re-issues each campaign phase's public layer call, one phase
// at a time, each timed as a span under root.
type replay struct {
	tr    *tracer
	u     *internet.Universe
	rep   *experiments.Report
	root  int
	layer map[string]float64
	err   error
}

func (rp *replay) dial() (net.PacketConn, error) { return rp.u.Net.DialUDP() }

// phase times fn as one span and returns its wall time in seconds.
func (rp *replay) phase(name string, fn func(parent int) error) float64 {
	if rp.err != nil {
		return 0
	}
	r := rp.tr.begin(name, rp.root)
	if err := fn(r.ID()); err != nil {
		rp.err = fmt.Errorf("replaying %s: %w", name, err)
	}
	return r.end().dur().Seconds()
}

func (rp *replay) run() {
	rp.layer = make(map[string]float64)
	root := rp.tr.begin("replay", 0)
	rp.root = root.ID()
	defer root.end()
	ctx := context.Background()
	u, wd := rp.u, rp.rep.Headline()
	L := rp.layer

	L["dnsclient.resolve_s"] = rp.phase("dnsclient.ResolveBatch", func(int) error {
		cl := &dnsclient.Client{Server: net.UDPAddrFromAddrPort(internet.DNSAddr), DialPacket: rp.dial, Timeout: 2 * time.Second}
		seen := make(map[string]bool)
		var all []string
		for _, src := range sortedKeys(u.SourceLists) {
			names := u.SourceLists[src]
			cl.ResolveBatch(ctx, names, dnswire.TypeHTTPS, 64)
			for _, n := range names {
				if !seen[n] {
					seen[n] = true
					all = append(all, n)
				}
			}
		}
		cl.ResolveBatch(ctx, all, dnswire.TypeA, 64)
		cl.ResolveBatch(ctx, all, dnswire.TypeAAAA, 64)
		return nil
	})

	zscan := func(targets []netip.Addr, noPad bool) error {
		pc, err := rp.dial()
		if err != nil {
			return err
		}
		defer pc.Close()
		zs := &zmapquic.Scanner{Conn: pc, Cooldown: 400 * time.Millisecond, NoPadding: noPad}
		_, _, err = zs.ScanAddrs(ctx, targets)
		return err
	}
	var v4 []netip.Addr
	sweep := zmapquic.NewSweep(u.Spec.Seed, u.V4Prefixes())
	for i := uint64(0); i < sweep.DomainSize(); i++ {
		if a, ok := sweep.AddrAtPosition(i); ok {
			v4 = append(v4, a)
		}
	}
	L["zmapquic.v4_s"] = rp.phase("zmapquic.ScanAddrs v4", func(int) error { return zscan(v4, false) })
	v6 := keys(addrSet(wd.V6.DomainsByAddr))
	for _, a := range u.IPv6Hitlist {
		if _, ok := wd.V6.DomainsByAddr[a]; !ok {
			v6 = append(v6, a)
		}
	}
	L["zmapquic.v6_s"] = rp.phase("zmapquic.ScanAddrs v6", func(int) error { return zscan(v6, false) })

	tls := &tlsscan.Scanner{
		Dial:    func(_ context.Context, a netip.AddrPort) (net.Conn, error) { return u.Net.DialStream(a) },
		RootCAs: u.RootCAs(),
		Timeout: 2 * time.Second,
		Workers: 64,
	}
	var tlsOK, tlsAll int
	tlsScan := func(ts []tlsscan.Target) {
		for _, r := range tls.Scan(ctx, ts) {
			tlsAll++
			if r.OK {
				tlsOK++
			}
		}
	}
	L["tlsscan.altsvc_s"] = rp.phase("tlsscan.Scan alt-svc", func(int) error {
		var ts []tlsscan.Target
		for _, d := range u.Deployments {
			sni := ""
			if len(d.Domains) > 0 {
				sni = d.Domains[0]
			}
			ts = append(ts, tlsscan.Target{Addr: d.Addr, SNI: sni})
		}
		tlsScan(ts)
		return nil
	})

	rp.replayStateful(ctx)

	L["tlsscan.tcp_s"] = rp.phase("tlsscan.Scan tcp", func(int) error {
		tlsScan(tlsTargets(rp.rep.TCPNoSNI))
		tlsScan(tlsTargets(rp.rep.TCPSNI))
		return nil
	})
	L["tlsscan.ok_share"] = ratio(float64(tlsOK), float64(tlsAll))
	L["zmapquic.ablation_s"] = rp.phase("zmapquic.ScanAddrs ablation", func(int) error {
		return zscan(keys(addrSet(wd.V4.ZMap)), true)
	})

	rp.replayBehavioral(ctx)

	L["experiments.render_ms"] = 1000 * rp.phase("experiments.Render", func(int) error {
		for _, id := range experiments.ExperimentIDs {
			if out := rp.rep.Render(id); len(out) < 20 {
				return fmt.Errorf("%s rendered %q", id, out)
			}
		}
		return nil
	})
}

// replayStateful re-scans the four cohorts. core.Scan is an
// order-preserving pool of Workers goroutines calling ScanTarget; the
// replay runs the same pool from outside so each target is a span.
func (rp *replay) replayStateful(ctx context.Context) {
	u, L := rp.u, rp.layer
	sc := &core.Scanner{DialPacket: rp.dial, RootCAs: u.RootCAs(), Timeout: 2 * time.Second, Workers: 64}
	defer sc.Close()
	cohorts := []struct {
		name    string
		results []core.Result
	}{
		{"noSNI4", rp.rep.StatefulNoSNIV4}, {"sni4", rp.rep.StatefulSNIV4},
		{"noSNI6", rp.rep.StatefulNoSNIV6}, {"sni6", rp.rep.StatefulSNIV6},
	}
	before := snapCounters()
	var stateful, timeoutWait, barrier time.Duration
	var busy []time.Duration
	var success []float64
	var attempts int
	for _, c := range cohorts {
		var lat []time.Duration
		var results []core.Result
		d := rp.phase("core.Scan "+c.name, func(parent int) error {
			lat, results = scanPool(ctx, sc, c.results, rp.tr, parent)
			return nil
		})
		stateful += time.Duration(d * float64(time.Second))
		ms := durationsMs(lat)
		barrier += time.Duration(d*float64(time.Second)) - time.Duration(median(ms)*1e6)
		for i, r := range results {
			busy = append(busy, lat[i])
			attempts += r.Attempts
			if r.Outcome == core.OutcomeTimeout {
				timeoutWait += lat[i]
			}
			if r.Outcome == core.OutcomeSuccess {
				success = append(success, float64(lat[i])/1e6)
			}
		}
	}
	after := snapCounters()
	var sum time.Duration
	for _, b := range busy {
		sum += b
	}
	L["core.stateful_s"] = stateful.Seconds()
	L["core.timeout_wait_s"] = timeoutWait.Seconds()
	L["core.cohort_barrier_s"] = barrier.Seconds()
	L["core.busy_ms_per_target"] = ratio(float64(sum)/1e6, float64(len(busy)))
	L["core.success_p50_ms"] = quantile(success, 0.5)
	L["core.attempts_per_target"] = ratio(float64(attempts), float64(len(busy)))
	hits := after.delta(before, "core_certcache_hits_total")
	L["core.certcache_hit_ratio"] = ratio(hits, hits+after.delta(before, "core_certcache_misses_total"))
}

// scanPool scans the targets of recorded results with sc.Workers
// goroutines, returning each call's duration and result in input
// order.
func scanPool(ctx context.Context, sc *core.Scanner, recorded []core.Result, tr *tracer, parent int) ([]time.Duration, []core.Result) {
	lat := make([]time.Duration, len(recorded))
	results := make([]core.Result, len(recorded))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recorded) {
					return
				}
				t0 := time.Now()
				results[i] = sc.ScanTarget(ctx, recorded[i].Target)
				t1 := time.Now()
				tr.call("core.ScanTarget", parent, t0, t1)
				lat[i] = t1.Sub(t0)
			}
		}()
	}
	wg.Wait()
	return lat, results
}

// replayBehavioral re-runs the three behavioral scans over every
// active deployment with the probers' campaign settings.
func (rp *replay) replayBehavioral(ctx context.Context) {
	u, L := rp.u, rp.layer
	var fps []fingerprint.Target
	var migs []migration.Target
	var ress []resumption.Target
	for _, d := range u.Deployments {
		if d.Behavior != internet.BehaviorActive {
			continue
		}
		sni := ""
		if len(d.Domains) > 0 {
			sni = d.Domains[0]
		}
		ap := netip.AddrPortFrom(d.Addr, 443)
		fps = append(fps, fingerprint.Target{Addr: ap, SNI: sni})
		migs = append(migs, migration.Target{Addr: ap, SNI: sni})
		ress = append(ress, resumption.Target{Addr: ap, SNI: sni})
	}
	L["fingerprint.probe_s"] = rp.phase("fingerprint.FingerprintAll", func(int) error {
		p := &fingerprint.Prober{DialPacket: rp.dial, Workers: 16, ProbeWait: 600 * time.Millisecond,
			HandshakeTimeout: 4 * time.Second, PingWait: 2 * time.Second}
		p.FingerprintAll(ctx, fps)
		return nil
	})
	L["migration.probe_s"] = rp.phase("migration.ProbeAll", func(int) error {
		p := &migration.Prober{DialPacket: rp.dial, Workers: 16, HandshakeTimeout: 4 * time.Second, MigrateWait: 4 * time.Second}
		p.ProbeAll(ctx, migs)
		return nil
	})
	L["resumption.probe_s"] = rp.phase("resumption.ProbeAll", func(int) error {
		p := &resumption.Prober{DialPacket: rp.dial, Workers: 16, HandshakeTimeout: 4 * time.Second, TicketWait: 4 * time.Second}
		p.ProbeAll(ctx, ress)
		return nil
	})
}

func tlsTargets(rs []tlsscan.Result) []tlsscan.Target {
	out := make([]tlsscan.Target, len(rs))
	for i, r := range rs {
		out[i] = r.Target
	}
	return out
}

func keys(m map[netip.Addr]bool) []netip.Addr {
	out := make([]netip.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
