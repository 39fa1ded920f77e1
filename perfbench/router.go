package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	rio "repro/internal/io"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/packet"
)

// The two forwarding workloads drive the 8-interface IP router in a
// closed loop: the harness's Backends hand frames to the ingress
// PollDevices (interfaces 0-3) whenever fewer than `window` frames are
// in flight, and check every frame the egress ToDevices send. The run
// loop is the benchmark's own: it calls Scheduler.RunRound, one worker.

const (
	nIfs     = 8
	nIngress = 4
	ttlBit   = 1 << 31 // schedule entry flag: send this frame with TTL 1
	ringSize = 1 << 12 // slots indexed by seq mod 2^12 (the IP ID carries seq mod 2^16)
)

// routerSpec configures one forwarding workload.
type routerSpec struct {
	name   string
	burst  int
	window int // frames in flight (denied frames are not counted)

	flowsPerIngress int // ipr8: uniform flows per ingress interface
	ttl1Percent     int // share of frames sent with TTL 1

	rules       int // IPFilter rules on every ingress path (0: none)
	admitFlows  int // fw5k: Zipf population of admitted flows per ingress
	denyFlows   int // fw5k: denied flows per ingress
	denyEvery   int // fw5k: every denyEvery-th frame is from a denied flow
	zipfS       float64
	fuseAndFC   bool // add opt.Fuse and opt.InstallFlowCache to the chain
	schedLen    int  // frames per ingress before the schedule repeats
	warmupNS    int64
	ctrlEveryNS int64 // in-process control op (handler read) period
}

var ipr8Spec = routerSpec{
	name: "ipr8-scalar", burst: 1, window: 16,
	flowsPerIngress: 256, ttl1Percent: 1,
	schedLen: 1 << 16, warmupNS: 1e9, ctrlEveryNS: 2e6,
}

var fw5kSpec = routerSpec{
	name: "fw5k-flowcache", burst: 32, window: 128,
	rules: 5000, admitFlows: 24576, denyFlows: 2048, denyEvery: 10, zipfS: 1.1,
	fuseAndFC: true, schedLen: 1 << 19, warmupNS: 3e9, ctrlEveryNS: 2e6,
}

// flow is one traffic flow: its ingress frame minus the per-frame
// fields (IP ID, TTL, checksum, payload) and the egress interface the
// benchmark's own route lookup and rule scan expect (-1: denied).
type flow struct {
	tmpl [frameLen]byte
	in   int8
	out  int8
}

const (
	kindFwd = iota
	kindTTL1
	kindDeny
)

// slot tracks one injected frame until it completes.
type slot struct {
	seq  uint64
	t    int64 // hand-off time at Recv
	flow int32
	kind uint8
	used bool
	done bool
}

// closedLoop is the forwarding harness: traffic model, in-flight
// accounting and the output checker. It runs on the run loop's
// goroutine only.
type closedLoop struct {
	spec  *routerSpec
	flows []flow
	sched [nIngress][]uint32
	pos   [nIngress]int
	rxBuf [nIngress][][]byte

	seq      uint64
	inflight int
	stopped  bool
	ring     []slot

	tally     tally
	injected  [nIfs]int64
	sent      [nIfs]int64
	completed int64

	measureFrom int64 // frames handed off at or after this time are timed
	lat         windowHist
	tr          *tracer
}

func newClosedLoop(spec *routerSpec, seed int64) *closedLoop {
	h := &closedLoop{spec: spec, ring: make([]slot, ringSize), measureFrom: 1 << 62}
	r := rand.New(rand.NewSource(seed))
	routes := routeTable(nIfs)
	mkFlow := func(in int, src, dst uint32, sport, dport uint16) flow {
		var f flow
		f.in = int8(in)
		f.out = int8(lpm(routes, dst))
		p := plan(in)
		copy(f.tmpl[0:6], p.routerMAC[:])
		copy(f.tmpl[6:12], p.hostM[:])
		f.tmpl[12], f.tmpl[13] = 0x08, 0x00
		putIPUDP(f.tmpl[ethLen:], src, dst, sport, dport, 64, 0)
		return f
	}
	host := func(net int) uint32 { return ip4([4]byte{10, 0, byte(net), byte(2 + r.Intn(253))}) }
	if spec.rules == 0 {
		for in := 0; in < nIngress; in++ {
			base := len(h.flows)
			for k := 0; k < spec.flowsPerIngress; k++ {
				h.flows = append(h.flows, mkFlow(in, host(in), host(nIngress+r.Intn(nIfs-nIngress)),
					uint16(1024+r.Intn(60000)), uint16(1+r.Intn(65535))))
			}
			s := make([]uint32, spec.schedLen)
			for k := range s {
				s[k] = uint32(base + r.Intn(spec.flowsPerIngress))
				if r.Intn(100) < spec.ttl1Percent {
					s[k] |= ttlBit
				}
			}
			h.sched[in] = s
		}
	} else {
		h.genFirewallTraffic(r, fwRulesFor(spec, seed), mkFlow, host)
	}
	for in := 0; in < nIngress; in++ {
		h.rxBuf[in] = make([][]byte, max(spec.burst, 1))
		for k := range h.rxBuf[in] {
			h.rxBuf[in][k] = make([]byte, frameLen)
		}
	}
	return h
}

// fwRulesFor returns the workload's generated rules (same seed, same
// rules).
func fwRulesFor(spec *routerSpec, seed int64) []fwRule {
	return genRules(rand.New(rand.NewSource(seed^0x5eed)), spec.rules)
}

// genFirewallTraffic builds per-ingress admitted and denied flow sets,
// classifying each candidate with the benchmark's own first-match scan
// of the generated rules, and a schedule where every denyEvery-th frame
// comes from a denied flow and the rest follow Zipf(s) over the
// admitted population.
func (h *closedLoop) genFirewallTraffic(r *rand.Rand, rules []fwRule, mkFlow func(int, uint32, uint32, uint16, uint16) flow, host func(int) uint32) {
	spec := h.spec
	verdicts := map[verdictKey]bool{}
	for in := 0; in < nIngress; in++ {
		var admit, deny []int32
		for len(admit) < spec.admitFlows || len(deny) < spec.denyFlows {
			// Sources span the rule pool plus a band of hosts no rule
			// names; ports span the pool's 16.
			src := fwHost(r.Intn(fwHostPool + fwHostPool/4))
			dport := uint16(fwPortBase + r.Intn(fwPortCount))
			k := verdictKey{src, dport}
			ok, seen := verdicts[k]
			if !seen {
				ok = firstMatch(rules, src, protoUDP, dport)
				verdicts[k] = ok
			}
			f := mkFlow(in, src, host(nIngress+r.Intn(nIfs-nIngress)), uint16(1024+r.Intn(60000)), dport)
			switch {
			case ok && len(admit) < spec.admitFlows:
				admit = append(admit, int32(len(h.flows)))
			case !ok && len(deny) < spec.denyFlows:
				f.out = -1
				deny = append(deny, int32(len(h.flows)))
			default:
				continue
			}
			h.flows = append(h.flows, f)
		}
		zipf := rand.NewZipf(r, spec.zipfS, 1, uint64(len(admit)-1))
		s := make([]uint32, spec.schedLen)
		for k := range s {
			if k%spec.denyEvery == spec.denyEvery-1 {
				s[k] = uint32(deny[r.Intn(len(deny))])
			} else {
				s[k] = uint32(admit[zipf.Uint64()])
			}
		}
		h.sched[in] = s
	}
}

// verdictKey is what the generated rules test besides the protocol;
// firstMatch results are memoized by it, which is exact for these
// rules.
type verdictKey struct {
	src   uint32
	dport uint16
}

// workloadText is the router configuration the workload builds, with
// the rules on the first `filtered` interfaces' input paths.
func workloadText(spec *routerSpec, rules []fwRule, filtered int) string {
	text := iprouter.Config(iprouter.Interfaces(nIfs))
	if spec.rules == 0 {
		return text
	}
	arg := rulesArg(rules)
	for i := 0; i < filtered; i++ {
		text = strings.Replace(text, "GetIPAddress(16) -> rt;",
			fmt.Sprintf("GetIPAddress(16) -> flt%d :: IPFilter(%s) -> rt;", i, arg), 1)
	}
	return text
}

// ifBackend is the harness's io.Backend for one router interface.
type ifBackend struct {
	h *closedLoop
	i int
}

func (b *ifBackend) Open() error                    { return nil }
func (b *ifBackend) Close() error                   { return nil }
func (b *ifBackend) Recv(buf [][]byte) (int, error) { return b.h.recv(b.i, buf), nil }
func (b *ifBackend) Send(frames [][]byte) (int, error) {
	b.h.send(b.i, frames)
	return len(frames), nil
}

// recv hands up to len(buf) frames to interface i while the window
// allows.
func (h *closedLoop) recv(i int, buf [][]byte) int {
	if i >= nIngress || h.stopped {
		return 0
	}
	s := h.sched[i]
	var t int64 = -1
	n := 0
	for n < len(buf) {
		e := s[h.pos[i]]
		fi := int32(e &^ ttlBit)
		fl := &h.flows[fi]
		kind := uint8(kindFwd)
		switch {
		case fl.out < 0:
			kind = kindDeny
		case e&ttlBit != 0:
			kind = kindTTL1
		}
		if kind != kindDeny && h.inflight >= h.spec.window {
			break
		}
		if t < 0 {
			t = now()
		}
		h.pos[i]++
		if h.pos[i] == len(s) {
			h.pos[i] = 0
		}
		seq := h.seq
		h.seq++
		b := h.rxBuf[i][n]
		copy(b, fl.tmpl[:])
		ip := b[ethLen : ethLen+ipLen]
		binary.BigEndian.PutUint16(ip[4:6], uint16(seq))
		if kind == kindTTL1 {
			ip[8] = 1
		}
		setIPChecksum(ip)
		putPayload(b[ethLen+ipLen+udpLen:], seq)
		sl := &h.ring[seq%ringSize]
		if sl.used && !sl.done && sl.kind != kindDeny {
			h.tally.fail("frame %d never left the router", sl.seq)
			h.inflight--
		}
		*sl = slot{seq: seq, t: t, flow: fi, kind: kind, used: true}
		if kind == kindDeny {
			h.completed++
		} else {
			h.inflight++
		}
		h.injected[i]++
		h.tally.attempted++
		buf[n] = b
		n++
	}
	if t >= 0 && h.tr != nil {
		h.tr.child("harness.recv", t, now())
	}
	return n
}

// send checks every frame interface j transmits.
func (h *closedLoop) send(j int, frames [][]byte) {
	t := now()
	for _, f := range frames {
		h.sent[j]++
		h.check(j, f, t)
	}
	if h.tr != nil {
		h.tr.child("harness.send", t, now())
	}
}

func (h *closedLoop) check(j int, f []byte, t int64) {
	if len(f) < ethLen+ipLen || f[12] != 0x08 || f[13] != 0x00 {
		h.tally.fail("non-IP frame (%d bytes) on eth%d", len(f), j)
		return
	}
	switch f[ethLen+9] {
	case protoUDP:
		h.checkForward(j, f, t)
	case protoICMP:
		h.checkICMP(j, f, t)
	default:
		h.tally.fail("unexpected IP protocol %d on eth%d", f[ethLen+9], j)
	}
}

// complete retires a checked frame's slot.
func (h *closedLoop) complete(sl *slot, t int64) {
	sl.done = true
	h.inflight--
	h.completed++
	if sl.t >= h.measureFrom {
		h.lat.add(sl.t, t-sl.t)
	}
}

// expectedIP rebuilds a frame's IP header as injected.
func (h *closedLoop) expectedIP(sl *slot) [ipLen]byte {
	var ip [ipLen]byte
	copy(ip[:], h.flows[sl.flow].tmpl[ethLen:ethLen+ipLen])
	binary.BigEndian.PutUint16(ip[4:6], uint16(sl.seq))
	if sl.kind == kindTTL1 {
		ip[8] = 1
	}
	setIPChecksum(ip[:])
	return ip
}

// checkForward checks a forwarded frame: right device by the route
// table, interface and host MACs, TTL-1, valid checksum, every other
// byte untouched, delivered once.
func (h *closedLoop) checkForward(j int, f []byte, t int64) {
	if len(f) != frameLen {
		h.tally.fail("UDP frame of %d bytes on eth%d", len(f), j)
		return
	}
	seq := binary.BigEndian.Uint64(f[ethLen+ipLen+udpLen:])
	sl := &h.ring[seq%ringSize]
	if !sl.used || sl.seq != seq {
		h.tally.fail("frame with unknown sequence %d on eth%d", seq, j)
		return
	}
	if sl.done {
		h.tally.fail("frame %d delivered twice", seq)
		return
	}
	fl := &h.flows[sl.flow]
	switch {
	case sl.kind == kindDeny:
		// A denied frame was never in flight: retire it without
		// touching the window.
		sl.done = true
		h.tally.fail("frame %d is denied by the rules but left on eth%d", seq, j)
		return
	case sl.kind == kindTTL1:
		h.tally.fail("TTL-1 frame %d forwarded on eth%d", seq, j)
	case int(fl.out) != j:
		h.tally.fail("frame %d left on eth%d, the route table says eth%d", seq, j, fl.out)
	default:
		if why := h.forwardBytes(j, f, sl); why != "" {
			h.tally.fail("frame %d on eth%d: %s", seq, j, why)
		}
	}
	h.complete(sl, t)
}

func (h *closedLoop) forwardBytes(j int, f []byte, sl *slot) string {
	p := plan(j)
	if string(f[0:6]) != string(p.hostM[:]) || string(f[6:12]) != string(p.routerMAC[:]) {
		return "wrong Ethernet addresses"
	}
	ip := f[ethLen : ethLen+ipLen]
	if checksum(ip) != 0 {
		return "bad IP checksum"
	}
	want := h.expectedIP(sl)
	want[8]--
	setIPChecksum(want[:])
	if string(ip) != string(want[:]) {
		if ip[8] != want[8] {
			return fmt.Sprintf("TTL %d, want %d", ip[8], want[8])
		}
		return "IP header rewritten"
	}
	tmpl := &h.flows[sl.flow].tmpl
	if string(f[ethLen+ipLen:ethLen+ipLen+udpLen]) != string(tmpl[ethLen+ipLen:ethLen+ipLen+udpLen]) {
		return "UDP header rewritten"
	}
	if !payloadOK(f[ethLen+ipLen+udpLen:], sl.seq) {
		return "payload rewritten"
	}
	return ""
}

// checkICMP checks an ICMP time-exceeded answer (RFC 792): it answers a
// TTL-1 frame, leaves on that frame's ingress device addressed to its
// sender from a router address, and quotes its IP header and the first
// 8 bytes after it.
func (h *closedLoop) checkICMP(j int, f []byte, t int64) {
	ip := f[ethLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipLen || len(ip) < ihl+8+ipLen+8 {
		h.tally.fail("short ICMP frame on eth%d", j)
		return
	}
	tot := int(binary.BigEndian.Uint16(ip[2:4]))
	if tot > len(ip) || tot < ihl+8+ipLen+8 {
		h.tally.fail("ICMP frame with bad length on eth%d", j)
		return
	}
	icmp := ip[ihl:tot]
	quoted := icmp[8:]
	id := binary.BigEndian.Uint16(quoted[4:6])
	sl := &h.ring[id%ringSize]
	if !sl.used || sl.kind != kindTTL1 {
		h.tally.fail("ICMP on eth%d quotes a frame that was not sent with TTL 1", j)
		return
	}
	if sl.done {
		h.tally.fail("frame %d answered twice", sl.seq)
		return
	}
	if why := h.icmpBytes(j, f, ip[:ihl], icmp, sl); why != "" {
		h.tally.fail("ICMP for frame %d on eth%d: %s", sl.seq, j, why)
	}
	h.complete(sl, t)
}

func (h *closedLoop) icmpBytes(j int, f, iph, icmp []byte, sl *slot) string {
	fl := &h.flows[sl.flow]
	if int(fl.in) != j {
		return fmt.Sprintf("sent on eth%d, the frame came in on eth%d", j, fl.in)
	}
	p := plan(j)
	if string(f[0:6]) != string(p.hostM[:]) || string(f[6:12]) != string(p.routerMAC[:]) {
		return "wrong Ethernet addresses"
	}
	if checksum(iph) != 0 {
		return "bad IP checksum"
	}
	if icmp[0] != 11 || icmp[1] != 0 {
		return fmt.Sprintf("type %d code %d, want time exceeded (11, 0)", icmp[0], icmp[1])
	}
	if checksum(icmp) != 0 {
		return "bad ICMP checksum"
	}
	orig := h.expectedIP(sl)
	if string(iph[16:20]) != string(orig[12:16]) {
		return "not addressed to the original sender"
	}
	fromRouter := false
	for i := 0; i < nIfs; i++ {
		a := plan(i).addr
		fromRouter = fromRouter || string(iph[12:16]) == string(a[:])
	}
	if !fromRouter {
		return "source is not a router address"
	}
	q := icmp[8:]
	if string(q[:ipLen]) != string(orig[:]) {
		return "quoted IP header differs from the original"
	}
	if string(q[ipLen:ipLen+8]) != string(fl.tmpl[ethLen+ipLen:ethLen+ipLen+8]) {
		return "quoted transport header differs from the original"
	}
	return ""
}

// lost counts in-flight frames that never completed (after a drain).
func (h *closedLoop) lost() {
	for i := range h.ring {
		sl := &h.ring[i]
		if sl.used && !sl.done && sl.kind != kindDeny {
			h.tally.fail("frame %d never left the router", sl.seq)
			sl.done = true
		}
	}
}

// routerSetup is what a forwarding workload's setup produces.
type routerSetup struct {
	rt     *core.Router
	sched  *core.Scheduler
	graph  *graph.Router // the optimized configuration, for probes
	reg    *core.Registry
	phases map[string]int64 // ns per setup step
}

// stepTimer runs named setup steps, adding each one's time to phases
// and recording it as a span.
type stepTimer struct {
	phases map[string]int64
	tr     *tracer
}

func (st *stepTimer) step(name string, fn func() error) error {
	t := now()
	err := fn()
	e := now()
	st.phases[name] += e - t
	st.tr.record(name, t, e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// buildChain runs configuration text through parse, the paper's pass
// chain (xform combo patterns, fastclassifier, devirtualize),
// optionally opt.Fuse and opt.InstallFlowCache, and core.Build, one
// timed step each.
func buildChain(st *stepTimer, text, file string, fuseAndFC bool, opts core.BuildOptions) (*graph.Router, *core.Registry, *core.Router, error) {
	var g *graph.Router
	var rt *core.Router
	reg := elements.NewRegistry()
	steps := []struct {
		name string
		fn   func() error
	}{
		{"lang.parse", func() (err error) { g, err = lang.ParseRouter(text, file); return err }},
		{"opt.xform", func() error {
			pairs, err := opt.ParsePatterns(iprouter.ComboPatterns, "combo.patterns")
			if err == nil {
				opt.Xform(g, pairs)
			}
			return err
		}},
		{"opt.fastclassifier", func() error { return opt.FastClassifier(g, reg) }},
		{"opt.devirtualize", func() error { return opt.Devirtualize(g, reg, nil) }},
		{"opt.fuse", func() error { return opt.Fuse(g, reg) }},
		{"opt.flowcache", func() error { return opt.InstallFlowCache(g, reg) }},
		{"core.build", func() (err error) { rt, err = core.Build(g, reg, opts); return err }},
	}
	for _, s := range steps {
		if !fuseAndFC && (s.name == "opt.fuse" || s.name == "opt.flowcache") {
			continue
		}
		if err := st.step(s.name, s.fn); err != nil {
			return nil, nil, nil, err
		}
	}
	return g, reg, rt, nil
}

// setupRouter runs config text to a router ready to forward: the pass
// chain and Build with the harness Backends as devices, static ARP
// entries, and a one-worker scheduler.
func setupRouter(spec *routerSpec, text string, h *closedLoop, tr *tracer) (*routerSetup, error) {
	st := &stepTimer{phases: map[string]int64{}, tr: tr}
	env := map[string]interface{}{}
	for i := 0; i < nIfs; i++ {
		name := fmt.Sprintf("eth%d", i)
		env["device:"+name] = rio.NewDevice(name, &ifBackend{h: h, i: i})
	}
	g, reg, rt, err := buildChain(st, text, spec.name+".click", spec.fuseAndFC, core.BuildOptions{Burst: spec.burst, Env: env})
	if err != nil {
		return nil, err
	}
	// Static ARP entries: every address of each attached network
	// resolves to that link's host, which stands for the network behind
	// it.
	for _, e := range rt.Elements() {
		if aq, ok := e.(*elements.ARPQuerier); ok {
			for i := 0; i < nIfs; i++ {
				for x := 2; x < 255; x++ {
					aq.InsertEntry(packet.IP4{10, 0, byte(i), byte(x)}, plan(i).hostM)
				}
			}
		}
	}
	s := &routerSetup{rt: rt, graph: g, reg: reg, phases: st.phases}
	err = st.step("core.scheduler", func() (err error) {
		s.sched, err = core.NewScheduler(rt, 1)
		return err
	})
	return s, err
}

// readInt reads an integer handler directly (between rounds).
func readInt(rt *core.Router, path string) (int64, error) {
	v, err := rt.ReadHandler(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
}

// flowCacheName finds the installed FlowCache element ("" if none).
func flowCacheName(rt *core.Router) string {
	for _, e := range rt.Elements() {
		if fc, ok := e.(*elements.FlowCache); ok {
			return fc.Name()
		}
	}
	return ""
}

// runRouter runs one forwarding workload: cold setup, warm-up, the
// timed phase, a drain, and the checks.
func runRouter(spec *routerSpec, o runOpts) (*tally, *metricSet, error) {
	ms := newMetricSet()
	h := newClosedLoop(spec, o.seed)
	var rules []fwRule
	if spec.rules > 0 {
		rules = fwRulesFor(spec, o.seed)
	}
	text := workloadText(spec, rules, nIfs)
	if o.trace {
		h.tr = newTracer(o.maxSpans)
	}
	heapInputs := liveHeap()

	t0 := now()
	su, err := setupRouter(spec, text, h, h.tr)
	if err != nil {
		return nil, nil, err
	}
	ms.e2e("setup_s", "s", float64(now()-t0)/1e9)
	heapRouter := liveHeap()
	ms.e2e("heap_live_mb", "MiB", (float64(heapRouter)-float64(heapInputs))/(1<<20))
	layerSetup(ms, su.phases)
	keepRaw := 0
	if h.tr != nil {
		keepRaw = len(h.tr.spans)
	}

	rt, sched := su.rt, su.sched
	fc := flowCacheName(rt)
	ctrlPaths := []string{"out4.drops", "out5.drops", "out6.drops", "out7.drops"}
	if fc != "" {
		ctrlPaths = append(ctrlPaths, fc+".hits")
	}
	lp := &routerLoop{h: h, sched: sched, ctrlPaths: ctrlPaths, ctrlEvery: spec.ctrlEveryNS, tr: h.tr}

	// Warm-up: the same traffic, untimed, so caches fill and lazy
	// set-up finishes before the timed phase.
	lp.run(now() + spec.warmupNS)

	// Timed phase.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var hits0, miss0 int64
	if fc != "" {
		hits0, _ = readInt(rt, fc+".hits")
		miss0, _ = readInt(rt, fc+".misses")
	}
	h.tr.mark(keepRaw)
	lp.resetCounters()
	start := now()
	h.measureFrom = start
	h.lat = windowHist{from: start, width: 1e9}
	done0, inj0 := h.completed, h.tally.attempted
	var sent0 int64
	for _, v := range h.sent {
		sent0 += v
	}
	cpu0 := cpuNanos()
	lp.win = rateWindows{width: 25e6}
	lp.win.begin(start, h.completed)
	lp.measuring = true
	lp.run(start + int64(o.seconds)*1e9)
	cpu1 := cpuNanos()
	lp.measuring = false
	runtime.ReadMemStats(&m1)
	done := h.completed - done0
	var sent int64
	for _, v := range h.sent {
		sent += v
	}
	sent -= sent0
	injected := h.tally.attempted - inj0
	ms.e2e("fwd_pps", "frames/s", median(lp.win.rates))
	ms.e2e("cpu_ns_per_frame", "ns", float64(cpu1-cpu0)/float64(done))
	ms.e2e("lat_p50_us", "us", h.lat.quantile(0.50)/1e3)
	ms.e2e("ctrl_p50_us", "us", percentile(lp.ctrlLat, 0.50))

	// Per-layer figures from the timed phase.
	if fc != "" {
		hits1, _ := readInt(rt, fc+".hits")
		miss1, _ := readInt(rt, fc+".misses")
		if d := (hits1 - hits0) + (miss1 - miss0); d > 0 {
			ms.layer("opt.flowcache_hit_ratio", "ratio", float64(hits1-hits0)/float64(d))
		}
	} else {
		ms.layer("opt.flowcache_hit_ratio", "ratio", 0)
	}
	round := h.tr.get("core.round")
	ms.layer("core.dataplane_ns_per_frame", "ns", float64(round.Self)/float64(done))
	ms.layer("core.idle_round_ratio", "ratio", float64(lp.idleRounds)/float64(max(lp.rounds, 1)))
	ms.layer("core.syncdo_wait_us", "us", percentile(lp.syncLat, 0.5))
	ms.layer("harness.recv_ns_per_frame", "ns", float64(h.tr.get("harness.recv").Total)/float64(max(injected, 1)))
	ms.layer("harness.send_ns_per_frame", "ns", float64(h.tr.get("harness.send").Total)/float64(max(sent, 1)))
	layerRuntime(ms, &m0, &m1, done)

	// Drain: stop injecting and run until every queue is empty.
	h.stopped = true
	sched.RunUntilIdle(1 << 20)
	h.lost()

	var hw int64
	for j := nIngress; j < nIfs; j++ {
		v, err := readInt(rt, fmt.Sprintf("out%d.highwater_length", j))
		if err == nil && v > hw {
			hw = v
		}
	}
	ms.layer("elements.queue_highwater", "frames", float64(hw))

	h.checkCounters(rt, fc)
	if o.trace {
		probeClassifiers(ms, rt, h)
		frames, _ := h.sampleFrames(4096)
		probeIO(ms, frames, spec.burst)
		if err := probePasses(ms, su); err != nil {
			return nil, nil, err
		}
		// The management API takes configurations up to 1 MiB, so the
		// firewall is admitted with its rules on one interface.
		if err := probeMgmt(ms, workloadText(spec, rules, 1), "out0"); err != nil {
			return nil, nil, err
		}
		if err := writeJSON(o.outDir, fmt.Sprintf("spans-%s-%d.json", spec.name, o.seed),
			traceDoc{Workload: spec.name, Seed: o.seed, Totals: h.tr.agg, Spans: h.tr.spans}); err != nil {
			return nil, nil, err
		}
	}
	return &h.tally, ms, nil
}

// checkCounters compares the harness's counts with the router's own
// PollDevice/ToDevice telemetry and, with a flow cache, hits+misses
// with the frames injected.
func (h *closedLoop) checkCounters(rt *core.Router, fc string) {
	stats := map[string]core.ElementStatsReport{}
	for _, r := range rt.StatsReport() {
		stats[r.Name] = r
	}
	var injected int64
	for i := 0; i < nIfs; i++ {
		injected += h.injected[i]
		fd, td := stats[fmt.Sprintf("fd%d", i)], stats[fmt.Sprintf("td%d", i)]
		h.tally.invariant(fd.PacketsOut == h.injected[i],
			"fd%d counted %d frames, the harness handed it %d", i, fd.PacketsOut, h.injected[i])
		h.tally.invariant(td.PacketsIn == h.sent[i],
			"td%d counted %d frames, the harness received %d", i, td.PacketsIn, h.sent[i])
	}
	if fc != "" {
		hits, err1 := readInt(rt, fc+".hits")
		misses, err2 := readInt(rt, fc+".misses")
		h.tally.invariant(err1 == nil && err2 == nil && hits+misses == injected,
			"flow cache hits %d + misses %d != %d frames injected", hits, misses, injected)
	}
	h.tally.invariant(h.inflight == 0, "%d frames still in flight after the drain", h.inflight)
}

// routerLoop is the forwarding workloads' run loop: RunRound calls,
// rate windows, and in-process control operations (telemetry polls:
// handler reads through Scheduler.ReadHandler) issued at the first
// round boundary
// after each falls due, at a fixed rate. An op is timed from its issue,
// not from its due time: the run loop is the only thread, so the wait
// before issue is the rest of one round plus whatever the host's
// scheduler took from the process, and host stalls would own the tail.
type routerLoop struct {
	h         *closedLoop
	sched     *core.Scheduler
	tr        *tracer
	ctrlPaths []string
	ctrlEvery int64
	nextCtrl  int64
	ctrlN     int

	measuring  bool
	win        rateWindows
	rounds     int64
	idleRounds int64
	ctrlLat    []float64 // µs
	syncLat    []float64 // µs
}

func (lp *routerLoop) resetCounters() {
	lp.rounds, lp.idleRounds = 0, 0
	lp.ctrlLat, lp.syncLat = nil, nil
}

func (lp *routerLoop) run(until int64) {
	if lp.nextCtrl == 0 {
		lp.nextCtrl = now() + lp.ctrlEvery
	}
	for {
		t := now()
		if t >= until {
			return
		}
		if t >= lp.nextCtrl {
			lp.ctrl()
			lp.nextCtrl += lp.ctrlEvery
			continue
		}
		if lp.measuring {
			lp.win.sample(t, lp.h.completed)
		}
		lp.tr.begin("core.round", t)
		did := lp.sched.RunRound()
		lp.tr.end(now())
		lp.rounds++
		if !did {
			lp.idleRounds++
		}
	}
}

// ctrl issues one telemetry poll — a read of every control path —
// and checks the answers: Queue drops must read 0 (the window never
// fills a queue), counters must parse.
func (lp *routerLoop) ctrl() {
	if lp.tr != nil {
		t := now()
		lp.sched.SyncDo(func() {})
		e := now()
		lp.tr.record("core.syncdo", t, e)
		if lp.measuring {
			lp.syncLat = append(lp.syncLat, float64(e-t)/1e3)
		}
	}
	lp.h.tally.attempted++
	t := now()
	var why string
	for _, path := range lp.ctrlPaths {
		v, err := lp.sched.ReadHandler(path)
		n, perr := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch {
		case why != "":
		case err != nil:
			why = fmt.Sprintf("read %s: %v", path, err)
		case perr != nil:
			why = fmt.Sprintf("read %s: %q is not a count", path, v)
		case strings.HasSuffix(path, ".drops") && n != 0:
			why = fmt.Sprintf("read %s: %d drops with the window below queue capacity", path, n)
		}
	}
	e := now()
	lp.tr.record("ctrl.poll", t, e)
	if lp.measuring {
		lp.ctrlLat = append(lp.ctrlLat, float64(e-t)/1e3)
	}
	if why != "" {
		lp.h.tally.fail("%s", why)
	}
}
