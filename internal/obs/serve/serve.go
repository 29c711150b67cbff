package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
	"sctuple/internal/obs/health"
)

// Server exposes one live run's telemetry over HTTP. Every source
// field is optional and nil-safe: a missing source turns its
// endpoints into informative 404s rather than panics, so the same
// server embeds in a serial run (pprof only), a bare parallel run
// (metrics + phases), or a fully-instrumented one. Construct by
// struct literal and call Start; the zero value serves only pprof
// and the index.
//
// Endpoints:
//
//	GET /            endpoint index (text)
//	GET /metrics     Prometheus text exposition of the registry
//	GET /healthz     health-probe summary JSON; status code maps the
//	                 worst severity (ok/none→200, warn→203, fail→503)
//	GET /steps       live per-step records; NDJSON by default, SSE
//	                 with Accept: text/event-stream; ?buf=N sets the
//	                 subscriber buffer (default 256 lines)
//	GET /phases      live per-phase time decomposition JSON
//	GET /trace       on-demand Chrome trace-event snapshot
//	GET /registry    raw registry snapshot JSON
//	GET /history     flight-recorder step history; ?res=1|10|100 picks
//	                 the ring resolution, ?fields=a,b filters fields
//	GET /anomalies   flight-recorder anomaly log JSON
//	GET /debug/pprof net/http/pprof profiles
type Server struct {
	// Registry feeds /metrics and /registry.
	Registry *obs.Registry
	// Recorder feeds /phases and /trace.
	Recorder *obs.Recorder
	// Health feeds /healthz.
	Health *health.Monitor
	// Steps feeds /steps; the simulation's StepWriter must publish
	// into the same tee (obs.NewStepWriterTee).
	Steps *obs.StepTee
	// Flight feeds /history and /anomalies.
	Flight *flight.Recorder
	// Info is static run metadata (model, scheme, ranks, …) echoed by
	// /healthz and the index for dashboards to display.
	Info map[string]string

	start   time.Time
	done    atomic.Bool
	httpSrv *http.Server
	lis     net.Listener
}

// Start listens on addr (e.g. ":9190", "127.0.0.1:0") and serves in
// a background goroutine. Call Addr for the bound address.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.start = time.Now()
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
			// The listener died under us; nothing to do but note it —
			// the simulation must not be taken down by its telemetry.
			fmt.Printf("serve: telemetry server: %v\n", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Finish marks the run complete: /healthz reports done, and the step
// tee closes so /steps streams end cleanly after delivering their
// buffered lines. The server keeps answering scrape endpoints until
// Close.
func (s *Server) Finish() {
	s.done.Store(true)
	s.Steps.Close()
}

// Close drains and stops the server: Finish (idempotent), then an
// HTTP shutdown that waits for in-flight handlers — including /steps
// streams flushing their remaining lines — up to the context's
// deadline.
func (s *Server) Close(ctx context.Context) error {
	s.Finish()
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// Handler builds the endpoint mux — exported so a multi-job daemon
// (the planned cmd/scserve) can mount one server per job under a
// path prefix, and so tests can drive handlers without a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/steps", s.handleSteps)
	mux.HandleFunc("/phases", s.handlePhases)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/registry", s.handleRegistry)
	mux.HandleFunc("/history", s.handleHistory)
	mux.HandleFunc("/anomalies", s.handleAnomalies)
	// net/http/pprof normally registers on http.DefaultServeMux as an
	// import side effect — a footgun for embeddable servers (anything
	// else in the process using the default mux would leak into our
	// listener and vice versa). Mount its handlers explicitly instead.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) uptime() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "sctuple live telemetry")
	keys := make([]string, 0, len(s.Info))
	for k := range s.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s: %s\n", k, s.Info[k])
	}
	fmt.Fprintln(w, "\nendpoints:")
	fmt.Fprintln(w, "  /metrics   Prometheus text exposition")
	fmt.Fprintln(w, "  /healthz   health summary (200 ok, 203 warn, 503 fail)")
	fmt.Fprintln(w, "  /steps     live step records (NDJSON; SSE with Accept: text/event-stream)")
	fmt.Fprintln(w, "  /phases    per-phase time decomposition")
	fmt.Fprintln(w, "  /trace     Chrome trace-event snapshot")
	fmt.Fprintln(w, "  /registry  raw registry snapshot JSON")
	fmt.Fprintln(w, "  /history   flight-recorder step history (?res=1|10|100, ?fields=a,b)")
	fmt.Fprintln(w, "  /anomalies flight-recorder anomaly log")
	fmt.Fprintln(w, "  /debug/pprof")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if s.Registry != nil {
		snap = s.Registry.Snapshot()
	}
	if snap.Counters == nil {
		snap.Counters = make(map[string]int64)
	}
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]float64)
	}
	// The server's own meters ride along in the same exposition.
	snap.Gauges["serve_uptime_seconds"] = s.uptime().Seconds()
	snap.Gauges["serve_steps_subscribers"] = float64(s.Steps.Subscribers())
	snap.Counters["serve_steps_dropped_lines"] = s.Steps.Dropped()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WriteExposition(w, snap); err != nil {
		// Mid-body failure: the client sees a truncated scrape; nothing
		// sensible to send at this point.
		return
	}
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	// Status is the worst probe severity observed so far: "ok",
	// "warn", "fail" — or "none" when no health monitor is attached.
	Status string `json:"status"`
	// Done reports whether the run has completed (Finish was called).
	Done          bool    `json:"done"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// UptimeMs duplicates the uptime at millisecond precision for
	// dashboards that want integer math.
	UptimeMs int64 `json:"uptime_ms"`
	// Step is the latest completed step (the parmd.steps counter);
	// StepsTotal is the run's configured step count, 0 when unknown.
	Step       int64                 `json:"step"`
	StepsTotal int64                 `json:"steps_total"`
	Info       map[string]string     `json:"info,omitempty"`
	Probes     []health.ProbeSummary `json:"probes,omitempty"`
}

// healthzStatus maps probe severity to an HTTP status usable as a
// liveness probe: ok (and no monitor) is 200; warn is 203
// Non-Authoritative Information — still 2xx, so an orchestrator's
// liveness check keeps passing while dashboards can distinguish the
// degraded state; fail is 503.
func healthzStatus(sum health.Summary, hasMonitor bool) (string, int) {
	if !hasMonitor {
		return "none", http.StatusOK
	}
	worst := health.OK
	for _, p := range sum.Probes {
		if sev := p.Severity(); sev > worst {
			worst = sev
		}
	}
	switch worst {
	case health.Fail:
		return worst.String(), http.StatusServiceUnavailable
	case health.Warn:
		return worst.String(), http.StatusNonAuthoritativeInfo
	}
	return worst.String(), http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sum := s.Health.Summary()
	status, code := healthzStatus(sum, s.Health != nil)
	resp := healthzResponse{
		Status:        status,
		Done:          s.done.Load(),
		UptimeSeconds: s.uptime().Seconds(),
		UptimeMs:      s.uptime().Milliseconds(),
		Info:          s.Info,
		Probes:        sum.Probes,
	}
	if s.Registry != nil {
		resp.Step = s.Registry.Counter("parmd.steps").Load()
	}
	if v, ok := s.Info["steps"]; ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			resp.StepsTotal = n
		}
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	if s.Steps == nil {
		http.Error(w, "step streaming disabled: no step tee attached", http.StatusNotFound)
		return
	}
	buf := 256
	if v := r.URL.Query().Get("buf"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "buf must be a positive integer", http.StatusBadRequest)
			return
		}
		buf = n
	}
	sub := s.Steps.Subscribe(buf)
	if sub == nil {
		// The tee already closed: the run is over; an empty, cleanly
		// ended stream tells the client exactly that.
		w.WriteHeader(http.StatusOK)
		return
	}
	defer sub.Cancel()
	flusher, _ := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case line, ok := <-sub.Lines():
			if !ok {
				if sse {
					fmt.Fprintf(w, "event: end\ndata: {\"dropped\":%d}\n\n", sub.Dropped())
				}
				return
			}
			if sse {
				// Lines carry their own trailing '\n' from the JSON
				// encoder; SSE data frames terminate with a blank line.
				// Out-of-band lines (anomalies, …) become named events.
				if line.Event != "" {
					if _, err := fmt.Fprintf(w, "event: %s\n", line.Event); err != nil {
						return
					}
				}
				if _, err := fmt.Fprintf(w, "data: %s\n", strings.TrimRight(string(line.Data), "\n")); err != nil {
					return
				}
				if _, err := fmt.Fprint(w, "\n"); err != nil {
					return
				}
			} else {
				if _, err := w.Write(line.Data); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// phaseJSON is one phase row of the /phases body.
type phaseJSON struct {
	Phase     string    `json:"phase"`
	MaxMs     float64   `json:"max_ms"`
	MeanMs    float64   `json:"mean_ms"`
	Imbalance float64   `json:"imbalance"`
	PerRankMs []float64 `json:"per_rank_ms"`
}

// phasesResponse is the /phases body: the live per-phase time
// decomposition across ranks, plus the critical-path and
// force-imbalance summaries derived from it.
type phasesResponse struct {
	Ranks          int         `json:"ranks"`
	UptimeSeconds  float64     `json:"uptime_seconds"`
	Phases         []phaseJSON `json:"phases"`
	CriticalPathMs float64     `json:"critical_path_ms"`
	// CriticalPathFraction is the per-phase max-rank time sum over the
	// server's uptime — a live approximation of the run's
	// critical-path fraction (exact only once the run spans the
	// server's whole lifetime).
	CriticalPathFraction float64 `json:"critical_path_fraction"`
	// ForceImbalance is max/mean per-rank time in the force
	// evaluation phases (force:interior + force:boundary) — the
	// quantity the adaptive balancer drives toward 1.
	ForceImbalance float64 `json:"force_imbalance"`
}

func (s *Server) handlePhases(w http.ResponseWriter, r *http.Request) {
	if s.Recorder == nil {
		http.Error(w, "phase timing disabled: no recorder attached", http.StatusNotFound)
		return
	}
	stats := s.Recorder.PhaseStats()
	resp := phasesResponse{
		Ranks:         s.Recorder.Ranks(),
		UptimeSeconds: s.uptime().Seconds(),
		Phases:        make([]phaseJSON, 0, len(stats)),
	}
	var forcePerRank []float64
	for _, ps := range stats {
		row := phaseJSON{
			Phase:     ps.Phase,
			MaxMs:     float64(ps.MaxNs) / 1e6,
			MeanMs:    ps.MeanNs / 1e6,
			Imbalance: ps.Imbalance(),
			PerRankMs: make([]float64, len(ps.PerRankNs)),
		}
		for i, ns := range ps.PerRankNs {
			row.PerRankMs[i] = float64(ns) / 1e6
		}
		resp.Phases = append(resp.Phases, row)
		if ps.Phase == "force:interior" || ps.Phase == "force:boundary" {
			if forcePerRank == nil {
				forcePerRank = make([]float64, len(ps.PerRankNs))
			}
			for i, ns := range ps.PerRankNs {
				forcePerRank[i] += float64(ns)
			}
		}
	}
	resp.CriticalPathMs = float64(obs.CriticalPathNs(stats)) / 1e6
	if up := s.uptime().Nanoseconds(); up > 0 {
		resp.CriticalPathFraction = float64(obs.CriticalPathNs(stats)) / float64(up)
		if resp.CriticalPathFraction > 1 {
			resp.CriticalPathFraction = 1
		}
	}
	if mx, mean := obs.MaxMean(forcePerRank); mean > 0 {
		resp.ForceImbalance = mx / mean
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.Recorder == nil {
		http.Error(w, "trace snapshot disabled: no recorder attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	// WriteTrace snapshots the atomic span rings — safe while ranks
	// still record; slots churned mid-copy are dropped, not torn.
	_ = s.Recorder.WriteTrace(w)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.Flight == nil {
		http.Error(w, "step history disabled: no flight recorder attached", http.StatusNotFound)
		return
	}
	res := 1
	switch v := r.URL.Query().Get("res"); v {
	case "", "1", "raw":
		res = 1
	case "10":
		res = 10
	case "100":
		res = 100
	default:
		http.Error(w, "res must be 1, 10, or 100", http.StatusBadRequest)
		return
	}
	var fields []string
	if v := r.URL.Query().Get("fields"); v != "" {
		for _, f := range strings.Split(v, ",") {
			if f = strings.TrimSpace(f); f != "" {
				fields = append(fields, f)
			}
		}
	}
	writeJSON(w, http.StatusOK, s.Flight.History(res, fields))
}

func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	if s.Flight == nil {
		http.Error(w, "anomaly detection disabled: no flight recorder attached", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.Flight.Anomalies())
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if s.Registry != nil {
		snap = s.Registry.Snapshot()
	}
	writeJSON(w, http.StatusOK, snap)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
