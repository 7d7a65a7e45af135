package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// metricDef names one metric of BENCHMARK.json; the two tables below are
// the single list the command prints from, and a test pins them to the file.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics the untraced run reports, for every workload.
// An "operation" is one CLI run (process start to exit) or one sweep of the
// served catalogue; see README.md for the per-workload reading of each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_rps", "1/s"},
}

// Units of per-layer metrics: "count" is exact and must repeat bit for bit
// between runs of one commit; "n" is a counter that moves with how many
// requests a timed window happened to fit.
var perLayer = []metricDef{
	// Probe, named by module (bench/probe).
	{"core.build_s", "s"},
	{"coll.pattern_s", "s"},
	{"coll.schedules", "count"},
	{"synth.schedule_s", "s"},
	{"synth.records", "count"},
	{"synth.alloc_ratio", "ratio"},
	{"fabric.encode_s", "s"},
	{"fabric.encoded_bytes", "count"},
	{"fabric.decode_s", "s"},
	{"fabric.decode_alloc_ratio", "ratio"},
	{"fabric.record_s", "s"},
	{"tracestore.save_s", "s"},
	{"tracestore.load_s", "s"},
	{"tracestore.prewarm_s", "s"},
	{"topology.build_s", "s"},
	{"topology.route_fill_s", "s"},
	{"topology.route_hit_ns", "ns"},
	{"netsim.evaluate_s", "s"},
	{"netsim.records_per_s", "1/s"},
	{"netsim.alloc_bytes", "bytes"},
	{"netsim.evaluate_torus_s", "s"},
	{"harness.placements_s", "s"},
	{"harness.compile_s", "s"},
	{"harness.tasks", "count"},
	{"harness.run_warm_s", "s"},
	{"harness.render_bytes", "count"},
	{"pool.dispatch_ns", "ns"},
	// Client-timed and /statsz deltas over the traced serve window; 0 on the
	// CLI workloads, which never enter the service layer.
	{"service.ttfb_ms", "ms"},
	{"service.request_p50_ms", "ms"},
	{"service.request_p95_ms", "ms"},
	{"service.renders", "n"},
	{"service.dedup_joins", "n"},
	{"service.shed", "n"},
	{"service.limit_misses", "n"},
	{"service.pool_busy_s", "s"},
	{"service.pool_wait_s", "s"},
	// Program-reported: the binaries' own obs registry (-obs-json for the
	// CLI, /metrics deltas for the daemon).
	{"harness.stage_compile_s", "s"},
	{"harness.stage_execute_s", "s"},
	{"harness.stage_render_s", "s"},
	{"harness.stage_synth_s", "s"},
	{"harness.stage_store-load_s", "s"},
	{"harness.stage_evaluate_s", "s"},
	{"harness.resolve_memory", "n"},
	{"harness.resolve_store", "n"},
	{"harness.resolve_synth", "n"},
	{"harness.unattributed_s", "s"},
	{"bench.trace_overhead_share", "ratio"},
	// The host-speed correction of the end-to-end times (calibrate.go): the
	// median factor, and the median operation as the clock read it.
	{"bench.host_factor", "ratio"},
	{"bench.raw_p50_ms", "ms"},
}

// stages and origins are the part of the program's obs vocabulary the
// program-reported metrics read (no workload takes the recording path, so
// its stage and origin are left out).
var (
	stages  = []string{"compile", "execute", "render", "synth", "store-load", "evaluate"}
	origins = []string{"memory", "store", "synth"}
)

// series is a flat view of the program's obs registry, keyed the way the
// Prometheus text format spells a sample: name{labels}, with histograms
// contributing name_sum{labels} and name_count{labels}.
type series map[string]float64

// readObsJSON parses a binebench -obs-json dump.
func readObsJSON(path string) (series, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var dump struct {
		Metrics []struct {
			Name      string  `json:"name"`
			Labels    string  `json:"labels"`
			Value     float64 `json:"value"`
			Histogram *struct {
				Count float64 `json:"count"`
				Sum   float64 `json:"sum"`
			} `json:"histogram"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := series{}
	for _, m := range dump.Metrics {
		labels := ""
		if m.Labels != "" {
			labels = "{" + m.Labels + "}"
		}
		if m.Histogram != nil {
			out[m.Name+"_sum"+labels] = m.Histogram.Sum
			out[m.Name+"_count"+labels] = m.Histogram.Count
		} else {
			out[m.Name+labels] = m.Value
		}
	}
	return out, nil
}

// readPrometheus parses Prometheus text exposition (the daemon's /metrics).
func readPrometheus(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// fetchMetrics reads the daemon's /metrics.
func fetchMetrics(base string) (series, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return readPrometheus(resp.Body)
}

// minus returns s - before, series by series.
func (s series) minus(before series) series {
	out := make(series, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// programReported fills the harness.* metrics from the program's registry.
// total is the time those stages should add up to (a CLI run's wall time,
// the daemon's summed serve time). A series the program no longer exports is
// reported as 0 and named in the returned warnings, never an error: the
// vocabulary belongs to the program and may move.
func programReported(s series, total float64, into map[string]float64) (warnings []string) {
	get := func(key string) float64 {
		v, ok := s[key]
		if !ok {
			warnings = append(warnings, "program no longer reports "+key)
		}
		return v
	}
	for _, st := range stages {
		into["harness.stage_"+st+"_s"] = get(`binebench_stage_seconds_sum{stage="` + st + `"}`)
	}
	for _, o := range origins {
		into["harness.resolve_"+o] = get(`binebench_resolves_total{origin="` + o + `"}`)
	}
	into["harness.unattributed_s"] = total - into["harness.stage_compile_s"] - into["harness.stage_execute_s"] - into["harness.stage_render_s"]
	return warnings
}
