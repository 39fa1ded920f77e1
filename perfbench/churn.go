package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/elements"
	rio "repro/internal/io"
	"repro/internal/mgmt"
)

// serve-churn hosts a fleet of traffic tenants in a mgmt.Plane
// (incremental admission, classifier sharing on), run by the plane's
// own pump (Plane.Start). Frames arrive open-loop at a fixed aggregate
// rate through the harness's Backends; control operations arrive
// open-loop at a fixed rate over HTTP, from one client goroutine on one
// keep-alive loopback connection to the plane's management handler.

type churnParams struct {
	traffic   int     // traffic tenants t000..
	churn     int     // idle churn tenant slots c000..
	templates int     // distinct rulesets in the template pool
	fps       float64 // aggregate offered frame rate
	opsPerSec float64 // offered control op rate
	warmupNS  int64
	// Op mix, in percent: the rest are tenant reports.
	swapPct, churnPct, writePct int
}

var churnSpec = churnParams{
	traffic: 64, churn: 16, templates: 4,
	fps: 32000, opsPerSec: 100, warmupNS: 1e9,
	swapPct: 40, churnPct: 30, writePct: 15,
}

// firewallRules is the §4 screened-host firewall; template v perturbs
// rule 11's port so each template's fused diagram differs, while rule
// 16 admits every tenant's traffic (UDP to 10.0.0.2 port 53).
var firewallRules = []string{
	"deny src net 10.0.0.0/8 && ip frag",
	"deny src host 192.168.1.1",
	"allow src net 172.16.0.0/12 && tcp && dst port 25",
	"allow dst host 10.0.0.2 && tcp && dst port 25",
	"deny tcp && dst port 23",
	"deny tcp && dst port 513",
	"deny tcp && dst port 514",
	"allow src host 10.0.0.2 && tcp && src port 25",
	"allow tcp && dst port 80 && dst host 10.0.0.3",
	"allow tcp && src port 80 && src host 10.0.0.3",
	"deny udp && dst port 69",
	"deny udp && dst port 161",
	"allow icmp type echo",
	"allow icmp type echo-reply",
	"allow dst host 10.0.0.2 && tcp && dst port 53",
	"allow dst host 10.0.0.2 && udp && dst port 53",
	"deny all",
}

// templateText is tenant template v: poll, a fusable IPFilter ->
// IPClassifier chain, a queue, transmit.
func templateText(v int) string {
	rules := append([]string(nil), firewallRules...)
	rules[10] = fmt.Sprintf("deny udp && dst port %d", 2000+v)
	return fmt.Sprintf(`pd :: PollDevice(eth0) -> flt :: IPFilter(%s) -> fc :: IPClassifier(udp, tcp, -);
fc [0] -> q :: Queue(64) -> td :: ToDevice(eth1);
fc [1] -> q;
fc [2] -> ds :: Discard;
`, strings.Join(rules, ", "))
}

// churnFrameLen is a tenant frame: raw IPv4+UDP (the templates poll
// straight into IPFilter), 22 payload bytes.
const churnFrameLen = ipLen + udpLen + payloadLen

// tenantFrame builds tenant t's frame seq into b.
func tenantFrame(b []byte, t int, seq uint64) {
	src := ip4([4]byte{192, 0, 2, byte(1 + t%250)})
	putIPUDP(b, src, ip4([4]byte{10, 0, 0, 2}), uint16(1024+seq%4096), 53, 64, uint16(seq))
	putPayload(b[ipLen+udpLen:], uint64(t)<<40|seq)
}

// trafficTenant is one traffic tenant's frame stream; it is touched by
// the pump goroutine only (and by the main goroutine once the pump has
// stopped).
type trafficTenant struct {
	idx       int
	next      uint64 // frames handed off
	delivered uint64 // next sequence number expected at egress
	probe     int    // frames to hand off regardless of schedule (dataplane probe)
	rx        []byte
	want      []byte
}

// churnRun is the serve-churn harness.
type churnRun struct {
	spec    *churnParams
	tenants []*trafficTenant
	period  int64 // ns between frames, fleet-wide

	genStart    int64
	genEnd      atomic.Int64 // no frame is due at or after this
	measureFrom atomic.Int64
	measuring   atomic.Bool

	mu   sync.Mutex
	devs map[string]*rio.Device

	// Pump-goroutine state.
	frames     tally
	lat        windowHist
	rounds     int64
	idleRounds int64
	active     bool
	sent       int64
	// deliveredTimed counts frames delivered during the timed phase.
	deliveredTimed int64

	tr *tracer
}

func newChurnRun(spec *churnParams) *churnRun {
	c := &churnRun{spec: spec, devs: map[string]*rio.Device{}, period: int64(1e9 / spec.fps)}
	for i := 0; i < spec.traffic; i++ {
		c.tenants = append(c.tenants, &trafficTenant{idx: i, rx: make([]byte, churnFrameLen), want: make([]byte, churnFrameLen)})
	}
	c.genEnd.Store(1 << 62)
	c.measureFrom.Store(1 << 62)
	return c
}

func trafficID(i int) string { return fmt.Sprintf("t%03d", i) }
func churnID(i int) string   { return fmt.Sprintf("c%03d", i) }

// device is the plane's DeviceProvider: traffic tenants get the
// harness's ingress (eth0) and egress (eth1) Backends, churn tenants
// Backends that must never see a frame. A tenant's devices persist
// across its swaps.
func (c *churnRun) device(tenant, dev string) interface{} {
	key := tenant + ":" + dev
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.devs[key]; ok {
		return d
	}
	be := &tenantBackend{c: c, name: key, egress: dev == "eth1"}
	var idx int
	if _, err := fmt.Sscanf(tenant, "t%03d", &idx); err == nil && strings.HasPrefix(tenant, "t") && idx < len(c.tenants) {
		be.t = c.tenants[idx]
	}
	d := rio.NewDevice(key, be)
	c.devs[key] = d
	return d
}

// tenantBackend is one tenant device's Backend.
type tenantBackend struct {
	c      *churnRun
	name   string
	t      *trafficTenant // nil: an idle churn tenant's device
	egress bool
}

func (b *tenantBackend) Open() error  { return nil }
func (b *tenantBackend) Close() error { return nil }

// Recv hands off the tenant's frames that are due. Tenant i's k-th
// frame is due at genStart + (k*traffic + i)*period, so the fleet's
// frames arrive evenly at the aggregate rate.
func (b *tenantBackend) Recv(buf [][]byte) (int, error) {
	c, tt := b.c, b.t
	if tt == nil || b.egress {
		return 0, nil
	}
	if tt.idx == 0 && c.measuring.Load() {
		// t000's ingress is polled once per scheduler round: a round
		// with no hand-off and no transmit anywhere was idle.
		c.rounds++
		if !c.active {
			c.idleRounds++
		}
		c.active = false
	}
	t := now()
	if tt.probe > 0 {
		tt.probe--
	} else if due := c.due(tt, tt.next); due > t || due >= c.genEnd.Load() {
		return 0, nil
	}
	// One frame per call: the plane runs at burst 1, and the backend
	// owns a single receive buffer per tenant.
	tenantFrame(tt.rx, tt.idx, tt.next)
	tt.next++
	c.frames.attempted++
	buf[0] = tt.rx
	c.active = true
	c.tr.child("harness.recv", t, now())
	return 1, nil
}

func (c *churnRun) due(tt *trafficTenant, seq uint64) int64 {
	return c.genStart + int64(seq*uint64(len(c.tenants))+uint64(tt.idx))*c.period
}

// Send checks frames leaving a tenant device: only a traffic tenant's
// egress may send, only its own frames, in order, none missing or
// repeated, byte-identical to what was injected.
func (b *tenantBackend) Send(frames [][]byte) (int, error) {
	c, tt := b.c, b.t
	t := now()
	c.active = true
	for _, f := range frames {
		c.sent++
		c.checkFrame(b, tt, f, t)
	}
	c.tr.child("harness.send", t, now())
	return len(frames), nil
}

func (c *churnRun) checkFrame(b *tenantBackend, tt *trafficTenant, f []byte, t int64) {
	if tt == nil || !b.egress {
		c.frames.fail("frame sent on %s, which carries no traffic", b.name)
		return
	}
	if len(f) != churnFrameLen {
		c.frames.fail("frame of %d bytes on %s", len(f), b.name)
		return
	}
	key := binary.BigEndian.Uint64(f[ipLen+udpLen:])
	owner, seq := int(key>>40), key&(1<<40-1)
	if owner != tt.idx {
		c.frames.fail("tenant %s's frame %d left on %s", trafficID(owner), seq, b.name)
		return
	}
	switch {
	case seq < tt.delivered:
		c.frames.fail("frame %d delivered twice on %s", seq, b.name)
		return
	case seq > tt.delivered:
		for s := tt.delivered; s < seq; s++ {
			c.frames.fail("frame %d lost on %s", s, b.name)
		}
	}
	tt.delivered = seq + 1
	tenantFrame(tt.want, tt.idx, seq)
	if !bytes.Equal(f, tt.want) {
		c.frames.fail("frame %d on %s differs from the frame injected", seq, b.name)
	}
	if due := c.due(tt, seq); due >= c.measureFrom.Load() && due < c.genEnd.Load() {
		c.lat.add(due, t-due)
	}
	if c.measuring.Load() {
		c.deliveredTimed++
	}
}

// fleetModel is the client's own record of what the fleet should be.
type fleetModel struct {
	template map[string]int // live tenant -> template index
	swaps    map[string]int
}

func (m *fleetModel) distinctTemplates() int {
	seen := map[int]bool{}
	for _, v := range m.template {
		seen[v] = true
	}
	return len(seen)
}

// opStat is a control op type's client-side record.
type opStat struct {
	ok      int64
	totalNS int64     // request to response, successful ops
	lat     []float64 // µs, request to response, timed phase
}

// ctrlClient issues control ops over HTTP. It runs on its own
// goroutine during the run and on the main goroutine in setup.
type ctrlClient struct {
	c      *churnRun
	base   string
	http   *http.Client
	plane  *mgmt.Plane
	rng    *rand.Rand
	model  fleetModel
	tally  tally
	ops    map[string]*opStat
	dueLat []float64 // µs from due time, timed phase
	serve  []float64 // µs, handler time per op, timed phase
	trans  []float64 // µs, client minus handler time, timed phase
	syncW  []float64 // µs, no-op SyncDo probes (traced)

	handlerNS *atomic.Int64 // last op's handler time, set by the server wrapper
	tr        *tracer
}

func (cl *ctrlClient) stat(kind string) *opStat {
	s := cl.ops[kind]
	if s == nil {
		s = &opStat{}
		cl.ops[kind] = s
	}
	return s
}

// do issues one request and reports the status and body.
func (cl *ctrlClient) do(kind, method, path, body string, timed bool) (int, []byte, error) {
	req, err := http.NewRequest(method, cl.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	t := now()
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	e := now()
	cl.tr.record("ctrl."+kind, t, e)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode == http.StatusOK {
		s := cl.stat(kind)
		s.ok++
		s.totalNS += e - t
		if timed {
			s.lat = append(s.lat, float64(e-t)/1e3)
			h := cl.handlerNS.Load()
			cl.serve = append(cl.serve, float64(h)/1e3)
			cl.trans = append(cl.trans, float64(e-t-h)/1e3)
		}
	}
	return resp.StatusCode, data, nil
}

// op issues one control op, checks its answer and updates the model;
// a failed op counts against attempted.
func (cl *ctrlClient) op(kind, method, path, body string, timed bool, check func([]byte) string) bool {
	cl.tally.attempted++
	status, data, err := cl.do(kind, method, path, body, timed)
	switch {
	case err != nil:
		cl.tally.fail("%s %s: %v", method, path, err)
		return false
	case status != http.StatusOK:
		cl.tally.fail("%s %s: HTTP %d: %s", method, path, status, bytes.TrimSpace(data))
		return false
	}
	if check != nil {
		if why := check(data); why != "" {
			cl.tally.fail("%s %s: %s", method, path, why)
			return false
		}
	}
	return true
}

func (cl *ctrlClient) create(id string, v int, timed bool) {
	if cl.op("create", "POST", "/tenants/"+id, templateText(v), timed, nil) {
		cl.model.template[id] = v
		cl.model.swaps[id] = 0
	}
}

// next issues the seeded op sequence's next op.
func (cl *ctrlClient) next(timed bool) {
	s := cl.c.spec
	r := cl.rng.Intn(100)
	tid := trafficID(cl.rng.Intn(s.traffic))
	switch {
	case r < s.swapPct:
		v := (cl.model.template[tid] + 1 + cl.rng.Intn(s.templates-1)) % s.templates
		if cl.op("swap", "PUT", "/tenants/"+tid, templateText(v), timed, nil) {
			cl.model.template[tid] = v
			cl.model.swaps[tid]++
		}
	case r < s.swapPct+s.churnPct:
		id := churnID(cl.rng.Intn(s.churn))
		if _, live := cl.model.template[id]; live {
			if cl.op("delete", "DELETE", "/tenants/"+id, "", timed, nil) {
				delete(cl.model.template, id)
				delete(cl.model.swaps, id)
			}
		} else {
			cl.create(id, cl.rng.Intn(s.templates), timed)
		}
	case r < s.swapPct+s.churnPct+s.writePct:
		capacity := 64 << cl.rng.Intn(4)
		cl.op("write", "POST", "/tenants/"+tid+"/elements/q/capacity", fmt.Sprint(capacity), timed, nil)
	default:
		cl.op("report", "GET", "/tenants/"+tid+"/report", "", timed, func(data []byte) string {
			var rep mgmt.Report
			if err := json.Unmarshal(data, &rep); err != nil || rep.ID != tid || len(rep.Elements) == 0 {
				return "malformed tenant report"
			}
			return ""
		})
	}
	// Shared classifier programs track distinct rulesets in use.
	if got, limit := cl.plane.SharingStats().Programs, cl.model.distinctTemplates(); got > limit {
		cl.tally.invariant(false, "%d shared programs resident with %d distinct templates in use", got, limit)
	}
}

// run issues ops at their due times until stopAt.
func (cl *ctrlClient) run(start, stopAt int64) {
	every := int64(1e9 / cl.c.spec.opsPerSec)
	for k := int64(0); ; k++ {
		due := start + k*every
		if due >= stopAt {
			return
		}
		// An op is timed from its due time when the client is behind
		// (a slow op delays the next), but from when the client woke
		// when it had to sleep: the sleep's own overshoot (timers have
		// about millisecond granularity here) is the generator's
		// lateness, not the plane's.
		start := due
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
			start = now()
		}
		timed := due >= cl.c.measureFrom.Load()
		if cl.tr != nil && k%4 == 0 {
			t := now()
			cl.plane.Scheduler().SyncDo(func() {})
			e := now()
			cl.tr.record("core.syncdo", t, e)
			if timed {
				cl.syncW = append(cl.syncW, float64(e-t)/1e3)
			}
		}
		cl.next(timed)
		if timed {
			cl.dueLat = append(cl.dueLat, float64(now()-start)/1e3)
		}
	}
}

// timedHandler wraps the plane's handler: it times each ServeHTTP call
// (a span in traced runs) and leaves the last duration for the client.
type timedHandler struct {
	h    http.Handler
	last atomic.Int64
	tr   *tracer
}

func (th *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := now()
	th.h.ServeHTTP(w, r)
	e := now()
	th.last.Store(e - t)
	th.tr.record("mgmt.serve", t, e)
}

// runChurn runs serve-churn.
func runChurn(spec *churnParams, o runOpts) (*tally, *metricSet, error) {
	ms := newMetricSet()
	c := newChurnRun(spec)
	if o.trace {
		c.tr = newTracer(o.maxSpans)
	}
	heapInputs := liveHeap()

	// Setup: plane, management API on loopback, initial fleet admitted
	// over HTTP.
	t0 := now()
	plane, err := mgmt.NewPlane(mgmt.Options{Registry: elements.NewRegistry(), Workers: 1, Burst: 1, Devices: c.device})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	th := &timedHandler{h: plane.Handler(), tr: c.tr}
	srv := &http.Server{Handler: th}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	cl := &ctrlClient{
		c: c, base: "http://" + ln.Addr().String(), http: &http.Client{Transport: transport},
		plane: plane, rng: rand.New(rand.NewSource(o.seed)),
		model:     fleetModel{template: map[string]int{}, swaps: map[string]int{}},
		ops:       map[string]*opStat{},
		handlerNS: &th.last, tr: c.tr,
	}
	for i := 0; i < spec.traffic; i++ {
		cl.create(trafficID(i), i%spec.templates, false)
	}
	for i := 0; i < spec.churn; i += 2 {
		cl.create(churnID(i), cl.rng.Intn(spec.templates), false)
	}
	if cl.tally.failed > 0 {
		return nil, nil, fmt.Errorf("initial fleet: %v", cl.tally.reasons)
	}
	ms.e2e("setup_s", "s", float64(now()-t0)/1e9)
	ms.e2e("heap_live_mb", "MiB", (float64(liveHeap())-float64(heapInputs))/(1<<20))

	// Run: the plane's pump, frames due from genStart, ops from the
	// client goroutine; the timed phase follows the warm-up.
	c.genStart = now() + 1e6
	measureFrom := c.genStart + spec.warmupNS
	end := measureFrom + int64(o.seconds)*1e9
	c.measureFrom.Store(measureFrom)
	c.lat = windowHist{from: measureFrom, width: 1e9}
	plane.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.run(c.genStart, end)
	}()
	sleepUntil(measureFrom)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.measuring.Store(true)
	cpu0, w0 := cpuNanos(), now()
	sleepUntil(end)
	cpu1, w1 := cpuNanos(), now()
	c.genEnd.Store(end)
	c.measuring.Store(false)
	runtime.ReadMemStats(&m1)
	wg.Wait()
	plane.Stop()

	// Drain: with the pump stopped the main goroutine owns the
	// dataplane; frames due before the end are still handed off.
	sched := plane.Scheduler()
	sched.RunUntilIdle(1 << 20)
	var handed int64
	for _, tt := range c.tenants {
		handed += int64(tt.next)
		for s := tt.delivered; s < tt.next; s++ {
			c.frames.fail("frame %d of %s never left", s, trafficID(tt.idx))
		}
	}
	deliveredTimed := c.deliveredTimed
	wall := float64(w1 - w0)
	cpu := float64(cpu1 - cpu0)
	ms.e2e("fwd_pps", "frames/s", float64(deliveredTimed)*1e9/wall)
	ms.e2e("cpu_ns_per_frame", "ns", cpu/float64(max(deliveredTimed, 1)))
	ms.e2e("cpu_util", "CPU-s/s", cpu/wall)
	ms.e2e("lat_p50_us", "us", c.lat.quantile(0.50)/1e3)
	ms.e2e("ctrl_p50_us", "us", percentile(cl.dueLat, 0.50))

	// Final state against the client's model, over the API.
	cl.checkFleet()
	layerRuntime(ms, &m0, &m1, deliveredTimed)
	ms.layer("core.idle_round_ratio", "ratio", float64(c.idleRounds)/float64(max(c.rounds, 1)))
	ms.layer("opt.flowcache_hit_ratio", "ratio", 0)
	for _, kind := range []string{"create", "swap", "delete", "write", "report"} {
		ms.layer("mgmt."+kind+"_us", "us", percentile(cl.stat(kind).lat, 0.5))
	}
	ms.layer("mgmt.serve_us", "us", percentile(cl.serve, 0.5))
	ms.layer("mgmt.transport_us", "us", percentile(cl.trans, 0.5))
	rep := plane.Report()
	ms.layer("mgmt.config_cache_hit_ratio", "ratio",
		float64(rep.ConfigCacheHits)/float64(max(rep.ConfigCacheHits+rep.ConfigCacheMisses, 1)))
	ms.layer("mgmt.shared_programs", "programs", float64(rep.Sharing.Programs))
	ms.layer("core.syncdo_wait_us", "us", percentile(cl.syncW, 0.5))
	ms.layer("harness.recv_ns_per_frame", "ns", float64(c.tr.get("harness.recv").Total)/float64(max(handed, 1)))
	ms.layer("harness.send_ns_per_frame", "ns", float64(c.tr.get("harness.send").Total)/float64(max(c.sent, 1)))
	ms.layer("elements.queue_highwater", "frames", float64(c.queueHighwater(sched.Router())))
	if o.trace {
		if err := c.probes(ms, sched, plane); err != nil {
			return nil, nil, err
		}
		if err := writeJSON(o.outDir, fmt.Sprintf("spans-serve-churn-%d.json", o.seed),
			traceDoc{Workload: "serve-churn", Seed: o.seed, Totals: c.tr.agg, Spans: c.tr.spans}); err != nil {
			return nil, nil, err
		}
	}

	t := &c.frames
	t.attempted += cl.tally.attempted
	t.failed += cl.tally.failed
	t.reasons = append(t.reasons, cl.tally.reasons...)
	t.broken = append(t.broken, cl.tally.broken...)
	return t, ms, nil
}

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// checkFleet compares GET /tenants and GET /report with the client's
// model: the same tenants and swap counts, op counts equal to the
// successful ops issued, and no op type's recorded plane time above
// what the client observed.
func (cl *ctrlClient) checkFleet() {
	_, data, err := cl.do("list", "GET", "/tenants", "", false)
	var infos []mgmt.TenantInfo
	if err == nil {
		err = json.Unmarshal(data, &infos)
	}
	cl.tally.invariant(err == nil, "GET /tenants: %v", err)
	var ids []string
	for id := range cl.model.template {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	cl.tally.invariant(len(infos) == len(ids), "GET /tenants lists %d tenants, the model has %d", len(infos), len(ids))
	for k := 0; k < len(infos) && k < len(ids); k++ {
		cl.tally.invariant(infos[k].ID == ids[k] && infos[k].Swaps == cl.model.swaps[ids[k]],
			"tenant %s with %d swaps, the model has %s with %d", infos[k].ID, infos[k].Swaps, ids[k], cl.model.swaps[ids[k]])
	}
	_, data, err = cl.do("plane-report", "GET", "/report", "", false)
	var rep mgmt.PlaneReport
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	cl.tally.invariant(err == nil, "GET /report: %v", err)
	for _, k := range []struct {
		kind  string
		plane mgmt.OpStats
	}{{"create", rep.Create}, {"swap", rep.Swap}, {"delete", rep.Delete}} {
		s := cl.stat(k.kind)
		cl.tally.invariant(k.plane.Count == s.ok, "/report counts %d %s ops, the client had %d succeed", k.plane.Count, k.kind, s.ok)
		cl.tally.invariant(k.plane.TotalNS <= s.totalNS, "/report records %d ns of %s, more than the %d ns the client saw", k.plane.TotalNS, k.kind, s.totalNS)
	}
}

// queueHighwater is the largest highwater_length over the tenants'
// queues.
func (c *churnRun) queueHighwater(rt *core.Router) int64 {
	var hw int64
	for _, tt := range c.tenants {
		if v, err := readInt(rt, core.HandlerPath(trafficID(tt.idx)+"/q", "highwater_length")); err == nil && v > hw {
			hw = v
		}
	}
	return hw
}

// probes runs serve-churn's per-layer probes once the pump has
// stopped: the dataplane over the live fleet (a burst of frames into
// every traffic tenant, each scheduler call a span with the Backend
// callbacks as children), the live classifier programs, io.Device, and
// the setup passes over the template pool.
func (c *churnRun) probes(ms *metricSet, sched *core.Scheduler, plane *mgmt.Plane) error {
	const perTenant, bursts = 256, 8
	burst := func() {
		for _, tt := range c.tenants {
			tt.probe = perTenant
		}
		for {
			t := now()
			c.tr.begin("core.round", t)
			did := sched.RunRound()
			c.tr.end(now())
			if !did {
				return
			}
		}
	}
	burst() // warm-up
	c.tr.mark(len(c.tr.spans))
	for k := 0; k < bursts; k++ {
		burst()
	}
	round := c.tr.get("core.round")
	ms.layer("core.dataplane_ns_per_frame", "ns", float64(round.Self)/float64(bursts*perTenant*len(c.tenants)))

	rt := sched.Router()
	var progs []classifierProg
	for _, tt := range c.tenants {
		if p, ok := liveProgram(rt, trafficID(tt.idx)+"/flt", 0); ok {
			progs = append(progs, p)
		}
	}
	samples := make([][]byte, 4096)
	for k := range samples {
		samples[k] = make([]byte, churnFrameLen)
		tenantFrame(samples[k], k%len(c.tenants), uint64(k))
	}
	if len(progs) != len(c.tenants) {
		return fmt.Errorf("found %d tenant filter programs for %d tenants", len(progs), len(c.tenants))
	}
	probeMatch(ms, samples, func(k int) []classifierProg {
		i := k % len(progs) // sample k is tenant k's frame
		return progs[i : i+1]
	})
	probeIO(ms, samples, 1)
	texts := make([]string, c.spec.templates)
	for v := range texts {
		texts[v] = templateText(v)
	}
	return probeTemplatePasses(ms, texts)
}
