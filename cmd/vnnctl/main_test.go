package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/vnnregistry"
	"repro/pkg/vnnserver"
)

func TestRenderStatus(t *testing.T) {
	fm := vnnserver.FleetMetrics{
		Node: "a",
		Nodes: map[string]vnnserver.Metrics{
			"a": {
				Node:     "a",
				UptimeMS: 65_000,
				Build:    vnnserver.BuildInfo{Version: "v1.2.3"},
				Cache:    vnnserver.CacheStats{Bytes: 3 << 20},
				Registry: vnnregistry.Metrics{
					Ready: true,
					Versions: []vnnregistry.VersionMetric{
						{Model: "acas", Version: 2, State: "live"},
						{Model: "acas", Version: 1, State: "retired"},
					},
				},
			},
			"b": {Node: "b", Build: vnnserver.BuildInfo{Version: "v1.2.3"}},
		},
		Errors: map[string]string{"http://10.0.0.9:8419": "connection refused"},
	}
	var sb strings.Builder
	renderStatus(&sb, fm)
	out := sb.String()

	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 2 nodes + 1 unreachable
		t.Fatalf("status rendered %d lines, want 4:\n%s", len(lines), out)
	}
	// Nodes sort by id: a before b; the unreachable peer trails.
	if !strings.HasPrefix(lines[1], "a ") || !strings.HasPrefix(lines[2], "b ") {
		t.Fatalf("node order wrong:\n%s", out)
	}
	for _, want := range []string{"v1.2.3", "yes", "1m5s", "3.0MiB", "acas@2", "connection refused"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "acas@1") {
		t.Errorf("retired version listed as live:\n%s", out)
	}
}

// topFixture builds two federation snapshots straddling a window in
// which "acme" issued 20 verify requests at ~8ms.
func topFixture(t *testing.T) (earlier, later vnnserver.FleetMetrics) {
	t.Helper()
	h := obs.NewHistogram("vnnd_tenant_request_duration_seconds", 1e-9)
	h.Observe(int64(time.Millisecond)) // pre-window traffic
	pre := h.Snapshot()
	earlier = vnnserver.FleetMetrics{Aggregate: vnnserver.Metrics{
		Tenants: map[string]obs.TenantSnapshot{
			"acme": {Routes: map[string]obs.TenantRouteSnapshot{
				"/v1/verify": {Requests: 1, Latency: pre},
			}},
		},
	}}
	for i := 0; i < 20; i++ {
		h.Observe(int64(8 * time.Millisecond))
	}
	post := h.Snapshot()
	later = vnnserver.FleetMetrics{Aggregate: vnnserver.Metrics{
		Tenants: map[string]obs.TenantSnapshot{
			"acme": {Routes: map[string]obs.TenantRouteSnapshot{
				"/v1/verify": {Requests: 21, Latency: post},
			}},
			"idle": {Routes: map[string]obs.TenantRouteSnapshot{
				"/v1/verify": {Requests: 0},
			}},
		},
	}}
	return earlier, later
}

func TestRenderTop(t *testing.T) {
	earlier, later := topFixture(t)
	var sb strings.Builder
	renderTop(&sb, earlier, later, 2*time.Second)
	out := sb.String()

	if !strings.Contains(out, "acme") || !strings.Contains(out, "/v1/verify") {
		t.Fatalf("top output missing the active tenant row:\n%s", out)
	}
	// 20 requests over 2s = 10.0 req/s.
	if !strings.Contains(out, "10.0") {
		t.Errorf("top rate wrong, want 10.0 req/s:\n%s", out)
	}
	// The window delta excludes the 1ms pre-window observation: both
	// quantiles land in the log2 bucket holding 8ms, reported as the
	// bucket's upper bound.
	want := fmtSeconds(float64(obs.BucketUpper(23)) * 1e-9) // 2^23-1 ns = 8.388607ms
	if got := strings.Count(out, want); got != 2 {
		t.Errorf("want p50 and p99 = %s (8ms log2 bucket upper bound), got %d occurrence(s):\n%s", want, got, out)
	}
	// Tenants with no traffic in the window are omitted.
	if strings.Contains(out, "idle") {
		t.Errorf("idle tenant rendered:\n%s", out)
	}

	// An all-idle window says so instead of printing an empty table.
	var empty strings.Builder
	renderTop(&empty, later, later, 2*time.Second)
	if !strings.Contains(empty.String(), "no tenant traffic") {
		t.Errorf("idle window not reported:\n%s", empty.String())
	}
}

func TestRenderTrace(t *testing.T) {
	doc := obs.TraceJSON{
		ID:         "q00000007",
		TraceID:    "0af7651916cd43dd8448eb211c80319c",
		Node:       "a",
		Route:      "/v1/verify",
		SpanID:     "b7ad6b7169203331",
		DurationMS: 12.5,
		Root: &obs.SpanJSON{
			Name: "/v1/verify", DurationUS: 12500,
			Children: []*obs.SpanJSON{
				{Name: "queue", DurationUS: 100},
				{Name: "solve", DurationUS: 12000, Attrs: map[string]any{"workers": 4}},
			},
		},
		Segments: []obs.TraceJSON{{
			TraceID:    "0af7651916cd43dd8448eb211c80319c",
			Node:       "b",
			Route:      "fleet.export",
			SpanID:     "00f067aa0ba902b7",
			ParentSpan: "b7ad6b7169203331",
			Root:       &obs.SpanJSON{Name: "fleet.export", DurationUS: 900},
		}},
	}
	var sb strings.Builder
	renderTrace(&sb, doc)
	out := sb.String()

	for _, want := range []string{
		"trace 0af7651916cd43dd8448eb211c80319c (job q00000007)  2 segment(s)",
		"segment node=a route=/v1/verify span=b7ad6b7169203331",
		"segment node=b route=fleet.export span=00f067aa0ba902b7 parent=b7ad6b7169203331",
		"workers=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	// The remote segment's tree renders under its own segment header.
	if strings.Index(out, "segment node=b") < strings.Index(out, "segment node=a") {
		t.Errorf("segments out of order:\n%s", out)
	}
	// Children indent under their parent.
	if !strings.Contains(out, "\n    queue") {
		t.Errorf("child span not indented:\n%s", out)
	}
}
