package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	rio "repro/internal/io"
	"repro/internal/mgmt"
	"repro/internal/opt"
	"repro/internal/packet"
)

// Per-layer figures that are not spans of the timed run come from
// probes: calls the benchmark makes into one module's public functions
// on the workload's own inputs, timed from outside. Probes run only in
// the traced run, after the timed phase.

// setupLayers maps setup step names to per-layer metric names.
var setupLayers = []struct{ step, metric string }{
	{"lang.parse", "lang.parse_ms"},
	{"opt.xform", "opt.xform_ms"},
	{"opt.fastclassifier", "opt.fastclassifier_ms"},
	{"opt.devirtualize", "opt.devirtualize_ms"},
	{"opt.fuse", "opt.fuse_ms"},
	{"opt.flowcache", "opt.flowcache_ms"},
	{"core.build", "core.build_ms"},
}

// layerSetup reports the setup steps a workload ran.
func layerSetup(ms *metricSet, phases map[string]int64) {
	for _, l := range setupLayers {
		if ns, ok := phases[l.step]; ok {
			ms.layer(l.metric, "ms", float64(ns)/1e6)
		}
	}
}

// layerRuntime reports the Go runtime's and packet buffers' share of a
// timed phase from two MemStats snapshots.
func layerRuntime(ms *metricSet, m0, m1 *runtime.MemStats, frames int64) {
	f := float64(max(frames, 1))
	ms.layer("packet.allocs_per_frame", "allocs", float64(m1.Mallocs-m0.Mallocs)/f)
	ms.layer("packet.alloc_bytes_per_frame", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/f)
	ms.layer("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	ms.layer("runtime.gc_pause_us", "us", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e3)
}

// probePasses times the chain's passes a workload's setup did not run
// (ipr8-scalar has no fuse or flow cache step) on a copy of its
// optimized configuration, so each pass's cost on this configuration
// is known even where the workload does not install it.
func probePasses(ms *metricSet, su *routerSetup) error {
	if _, ok := su.phases["opt.fuse"]; ok {
		return nil
	}
	g, reg := su.graph.Clone(), su.reg.Clone()
	t := now()
	if err := opt.Fuse(g, reg); err != nil {
		return fmt.Errorf("probe fuse: %w", err)
	}
	ms.layer("opt.fuse_ms", "ms", float64(now()-t)/1e6)
	t = now()
	if err := opt.InstallFlowCache(g, reg); err != nil {
		return fmt.Errorf("probe flowcache: %w", err)
	}
	ms.layer("opt.flowcache_ms", "ms", float64(now()-t)/1e6)
	return nil
}

// probeTemplatePasses times parse, the paper's chain, fuse, the flow
// cache pass and Build on each distinct tenant template, averaged, the
// way the forwarding workloads' setup runs them (the plane itself
// parses and fuses each distinct text once, inside its admission).
func probeTemplatePasses(ms *metricSet, texts []string) error {
	st := &stepTimer{phases: map[string]int64{}}
	for _, text := range texts {
		if _, _, _, err := buildChain(st, text, "tenant.click", true, core.BuildOptions{Burst: 1, Env: devEnv("eth0", "eth1")}); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	for k := range st.phases {
		st.phases[k] /= int64(len(texts))
	}
	layerSetup(ms, st.phases)
	return nil
}

// classifierProg is one live classification program on a frame's path
// and the offset it reads the frame from.
type classifierProg struct {
	comp *classifier.Compiled
	off  int
}

// probeClassifiers runs the live routers' classification programs —
// each interface's Classifier and, where present, its IPFilter, in
// whatever form the passes left them — over the workload's frames.
func probeClassifiers(ms *metricSet, rt *core.Router, h *closedLoop) {
	var progs [nIngress][]classifierProg
	for i := 0; i < nIngress; i++ {
		for _, c := range []struct {
			name string
			off  int
		}{{fmt.Sprintf("c%d", i), 0}, {fmt.Sprintf("flt%d", i), ethLen}} {
			if p, ok := liveProgram(rt, c.name, c.off); ok {
				progs[i] = append(progs[i], p)
			}
		}
	}
	frames, ins := h.sampleFrames(4096)
	probeMatch(ms, frames, func(k int) []classifierProg { return progs[ins[k]] })
}

// liveProgram compiles a live element's classification program.
func liveProgram(rt *core.Router, name string, off int) (classifierProg, bool) {
	e, ok := rt.Find(name).(interface{ Program() *classifier.Program })
	if !ok {
		return classifierProg{}, false
	}
	return classifierProg{classifier.Compile(e.Program()), off}, true
}

// probeMatch reports decision steps per frame (from the programs
// themselves) and the compiled matcher's time per frame, over frames
// each matched against the programs on its path.
func probeMatch(ms *metricSet, frames [][]byte, path func(k int) []classifierProg) {
	var steps, t int64
	const reps = 8
	for rep := 0; rep < reps; rep++ {
		start := now()
		for k, f := range frames {
			for _, p := range path(k) {
				_, _, n := p.comp.Match(f[p.off:])
				if rep == 0 {
					steps += int64(n)
				}
			}
		}
		if rep > 0 {
			t += now() - start
		}
	}
	ms.layer("classifier.steps_per_frame", "steps", float64(steps)/float64(len(frames)))
	ms.layer("classifier.match_ns", "ns", float64(t)/float64((reps-1)*len(frames)))
}

// sampleFrames builds n of the workload's frames as the harness would
// hand them off (round-robin over the ingress interfaces), with the
// ingress of each.
func (h *closedLoop) sampleFrames(n int) ([][]byte, []int) {
	frames := make([][]byte, n)
	ins := make([]int, n)
	for k := range frames {
		i := k % nIngress
		e := h.sched[i][(k/nIngress)%len(h.sched[i])]
		fl := &h.flows[e&^ttlBit]
		b := make([]byte, frameLen)
		copy(b, fl.tmpl[:])
		ip := b[ethLen : ethLen+ipLen]
		if e&ttlBit != 0 {
			ip[8] = 1
		}
		setIPChecksum(ip)
		putPayload(b[ethLen+ipLen+udpLen:], uint64(k))
		frames[k], ins[k] = b, i
	}
	return frames, ins
}

// nopBackend replays a fixed frame list and discards what it is sent:
// the io probe's Backend, so only io.Device's own work is timed.
type nopBackend struct {
	frames [][]byte
	next   int
}

func (b *nopBackend) Open() error  { return nil }
func (b *nopBackend) Close() error { return nil }
func (b *nopBackend) Recv(buf [][]byte) (int, error) {
	for k := range buf {
		buf[k] = b.frames[b.next]
		b.next = (b.next + 1) % len(b.frames)
	}
	return len(buf), nil
}
func (b *nopBackend) Send(frames [][]byte) (int, error) { return len(frames), nil }

// devEnv binds the named devices to replay Backends that are never
// polled (the template probe only builds).
func devEnv(names ...string) map[string]interface{} {
	env := map[string]interface{}{}
	for _, n := range names {
		env["device:"+n] = rio.NewDevice(n, &nopBackend{frames: [][]byte{nil}})
	}
	return env
}

// probeIO times io.Device receive (frame to packet) and transmit
// (packet to frame) over the workload's frames at its burst size.
func probeIO(ms *metricSet, frames [][]byte, burst int) {
	dev := rio.NewDevice("probe", &nopBackend{frames: frames})
	burst = max(burst, 1)
	// Small rounds, so transmitted packets go back to the buffer pool
	// before the next receive, as they do in the dataplane.
	const perRep = 64
	var rx, tx, n int64
	buf := make([]*packet.Packet, burst)
	for rep := 0; rep < 4096; rep++ {
		ps := make([]*packet.Packet, 0, perRep)
		t := now()
		for len(ps) < perRep {
			if burst == 1 {
				ps = append(ps, dev.RxDequeue())
				continue
			}
			k := dev.RxDequeueBatch(buf)
			ps = append(ps, buf[:k]...)
		}
		t1 := now()
		if burst == 1 {
			for _, p := range ps {
				dev.TxEnqueue(p)
			}
		} else {
			for k := 0; k < len(ps); k += burst {
				dev.TxEnqueueBatch(ps[k:min(k+burst, len(ps))])
			}
		}
		t2 := now()
		if rep > 0 {
			rx += t1 - t
			tx += t2 - t1
			n += int64(len(ps))
		}
	}
	ms.layer("io.rx_ns_per_frame", "ns", float64(rx)/float64(n))
	ms.layer("io.tx_ns_per_frame", "ns", float64(tx)/float64(n))
}

// probeMgmt admits a configuration into a fresh plane through the
// management API handler, in process (no socket), and times one op of
// each kind — the control plane's cost for this workload's
// configuration.
func probeMgmt(ms *metricSet, text, queue string) error {
	p, err := mgmt.NewPlane(mgmt.Options{Registry: elements.NewRegistry(), Workers: 1, Burst: 1})
	if err != nil {
		return err
	}
	hd := p.Handler()
	var serve, transport []float64
	op := func(metric, method, path, body string) error {
		t := now()
		req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
		w := httptest.NewRecorder()
		s := now()
		hd.ServeHTTP(w, req)
		se := now()
		var v interface{}
		err := json.Unmarshal(w.Body.Bytes(), &v)
		e := now()
		if w.Code != http.StatusOK || err != nil {
			return fmt.Errorf("probe %s %s: status %d", method, path, w.Code)
		}
		ms.layer(metric, "us", float64(e-t)/1e3)
		serve = append(serve, float64(se-s)/1e3)
		transport = append(transport, float64((e-t)-(se-s))/1e3)
		return nil
	}
	for _, o := range []struct{ metric, method, path, body string }{
		{"mgmt.create_us", "POST", "/tenants/probe", text},
		{"mgmt.swap_us", "PUT", "/tenants/probe", text},
		{"mgmt.write_us", "POST", "/tenants/probe/elements/" + queue + "/capacity", "512"},
		{"mgmt.report_us", "GET", "/tenants/probe/report", ""},
	} {
		if err := op(o.metric, o.method, o.path, o.body); err != nil {
			return err
		}
	}
	rep := p.Report()
	if err := op("mgmt.delete_us", "DELETE", "/tenants/probe", ""); err != nil {
		return err
	}
	ms.layer("mgmt.serve_us", "us", median(serve))
	ms.layer("mgmt.transport_us", "us", median(transport))
	ms.layer("mgmt.config_cache_hit_ratio", "ratio",
		float64(rep.ConfigCacheHits)/float64(max(rep.ConfigCacheHits+rep.ConfigCacheMisses, 1)))
	ms.layer("mgmt.shared_programs", "programs", float64(rep.Sharing.Programs))
	return nil
}
