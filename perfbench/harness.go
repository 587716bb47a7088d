package main

import (
	"net"
	"time"

	"quicscan/internal/h3"
	"quicscan/internal/internet"
	"quicscan/internal/quic"
	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/transportparams"
)

// setups is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it. Each repetition
// starts from a collected heap, so the previous one's universe is not
// swept on its time.
const setups = 3

// setupTiming records one set-up's phases.
type setupTiming struct {
	build, start, total time.Duration
}

// medianSetup reports the median of each phase over the repetitions.
func medianSetup(ts []setupTiming) (build, start, total float64) {
	var b, s, t []float64
	for _, x := range ts {
		b = append(b, x.build.Seconds())
		s = append(s, x.start.Seconds())
		t = append(t, x.total.Seconds())
	}
	return median(b), median(s), median(t)
}

// buildAndStart builds a universe and brings it online, timing both
// internet-layer calls.
func buildAndStart(spec internet.Spec, so internet.StartOptions, st *setupTiming) (*internet.Universe, error) {
	t0 := time.Now()
	u := internet.Build(spec)
	st.build = time.Since(t0)
	t1 := time.Now()
	if err := u.Start(so); err != nil {
		u.Stop()
		return nil, err
	}
	st.start = time.Since(t1)
	return u, nil
}

// loop calls op until the next call would overrun the budget, judged
// by the previous call's duration; op runs at least minOps times.
func loop(seconds float64, minOps int, op func(i int) error) error {
	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return err
		}
		last := time.Since(t0)
		if i+1 >= minOps && time.Since(begin)+last > budget {
			return nil
		}
	}
}

// minOps is how many ops a run makes at the least: traced runs
// alternate untraced and traced ops and need one of each.
func minOps(o options) int {
	if o.trace {
		return 2
	}
	return 1
}

// off sets the per-layer metrics of layers a workload does not reach
// to zero; NOTES.md lists which layer each workload exercises.
func (o *outcome) off(names ...string) {
	for _, n := range names {
		if _, ok := o.layer[n]; !ok {
			o.layer[n] = 0
		}
	}
}

// socketAllocKB is the bytes one simnet Network.DialUDP allocates,
// averaged over a batch of sockets that are closed afterwards.
func socketAllocKB(n *simnet.Network) (float64, error) {
	const k = 32
	conns := make([]net.PacketConn, 0, k)
	p := readProbe()
	for i := 0; i < k; i++ {
		pc, err := n.DialUDP()
		if err != nil {
			return 0, err
		}
		conns = append(conns, pc)
	}
	w := since(p)
	for _, pc := range conns {
		pc.Close()
	}
	return float64(w.alloc) / k / 1024, nil
}

// microTimings times the handshake path's building blocks from
// outside, on the scan's own inputs: a 1200-byte client Initial (seal,
// open and header parse), the scanner's default transport parameters
// and its HTTP/3 HEAD request. Each figure is the median of several
// batches, in nanoseconds per call.
type microTimings struct {
	sealOpen, headerParse, tpRoundtrip, qpackRoundtrip float64
}

func measureMicro() (microTimings, error) {
	var m microTimings
	dcid := quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
	ik, err := quiccrypto.NewInitialKeys(quicwire.Version1, dcid)
	if err != nil {
		return m, err
	}
	h := &quicwire.Header{Type: quicwire.PacketInitial, Version: quicwire.Version1,
		DstID: dcid, SrcID: quicwire.ConnID{8, 7, 6, 5, 4, 3, 2, 1}, PacketNumberLen: 4}
	hdrLen, _ := quicwire.AppendLongHeader(nil, h, 1200)
	payload := make([]byte, 1200-len(hdrLen)-quiccrypto.SealOverhead)
	var sealed []byte
	m.sealOpen, err = perCall(2000, func(i int) error {
		h.PacketNumber = uint64(i)
		pkt, pnOff := quicwire.AppendLongHeader(nil, h, len(payload)+quiccrypto.SealOverhead)
		pkt = append(pkt, payload...)
		sealed = ik.Client.SealPacket(pkt, pnOff, 4, uint64(i))
		_, _, _, err := ik.Client.OpenPacket(append([]byte(nil), sealed...), pnOff, int64(i)-1)
		return err
	})
	if err != nil {
		return m, err
	}
	m.headerParse, err = perCall(20000, func(int) error {
		_, _, err := quicwire.ParseLongHeader(sealed)
		return err
	})
	if err != nil {
		return m, err
	}
	params := quic.DefaultClientParams()
	m.tpRoundtrip, err = perCall(20000, func(int) error {
		_, err := transportparams.Unmarshal(params.Marshal())
		return err
	})
	if err != nil {
		return m, err
	}
	head := []h3.HeaderField{
		{Name: ":method", Value: "HEAD"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "w000001.cloudflare-sites.com"},
		{Name: ":path", Value: "/"},
	}
	m.qpackRoundtrip, err = perCall(20000, func(int) error {
		_, err := h3.DecodeHeaders(h3.EncodeHeaders(head))
		return err
	})
	return m, err
}

// perCall returns the median over five batches of n calls of the
// time per call in nanoseconds.
func perCall(n int, fn func(i int) error) (float64, error) {
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(b*n + i); err != nil {
				return 0, err
			}
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(batches), nil
}
