package obs

import (
	"regexp"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tp := mintTraceParent()
	if !tp.Valid() {
		t.Fatal("minted traceparent invalid")
	}
	s := tp.String()
	if len(s) != 55 || !strings.HasPrefix(s, "00-") {
		t.Fatalf("rendered header %q malformed", s)
	}
	got, ok := ParseTraceparent(s)
	if !ok || got != tp {
		t.Fatalf("round trip: %q -> %+v ok=%v, want %+v", s, got, ok, tp)
	}
	if got.HexTraceID() != s[3:35] {
		t.Fatalf("HexTraceID %q != header field %q", got.HexTraceID(), s[3:35])
	}
}

// hostileTraceparents are header values W3C Trace Context forbids.
var hostileTraceparents = []string{
	"",
	"00",
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",          // no flags
	"00-00000000000000000000000000000000-b7ad6b7169203331-01",       // zero trace id
	"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",       // zero span id
	"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // forbidden version
	"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",       // bad hex
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01xx",     // junk suffix
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",       // uppercase hex
	"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // non-hex version
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // suffix on version 00
}

func TestTraceparentParseRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("canonical example rejected: %q", valid)
	}
	// Future versions with trailing fields are accepted per spec.
	if _, ok := ParseTraceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Fatal("future-version header with -suffix rejected")
	}
	for _, bad := range hostileTraceparents {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

// traceparentGrammar is the reference the fuzz target checks the parser
// against: four lowercase-hex fields, then anything after a '-'.
var traceparentGrammar = regexp.MustCompile(`(?s)^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}(-.*)?$`)

// FuzzParseTraceparent: the parser never panics, accepts a header exactly
// when the reference grammar does — version not ff, non-zero ids, no
// suffix on version 00 — and re-renders an accepted header's fields as
// the caller sent them.
func FuzzParseTraceparent(f *testing.F) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, seed := range append(hostileTraceparents,
		valid,
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
		valid[:54],
		valid+"-",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0é",
		"00-0af7651916cd43dd8448eb211c8031é-b7ad6b7169203331-01",
	) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, ok := ParseTraceparent(s)
		m := traceparentGrammar.FindStringSubmatch(s)
		want := m != nil && m[1] != "ff" && !(m[1] == "00" && m[4] != "") &&
			m[2] != strings.Repeat("0", 32) && m[3] != strings.Repeat("0", 16)
		if ok != want {
			t.Fatalf("ParseTraceparent(%q) ok=%v, reference grammar %v", s, ok, want)
		}
		if !ok {
			if tp != (TraceParent{}) {
				t.Fatalf("ParseTraceparent(%q) rejected but returned %+v", s, tp)
			}
			return
		}
		if got := tp.String(); got[3:] != s[3:55] {
			t.Fatalf("ParseTraceparent(%q) re-renders as %q", s, got)
		}
	})
}

// TestStartRemoteJoinsTrace pins segment semantics: a segment started
// from a propagated traceparent shares the trace id, records the
// caller's span id as its parent, and is findable by the hex trace id
// through Get and Segments.
func TestStartRemoteJoinsTrace(t *testing.T) {
	recA := NewRecorder(RecorderOptions{Ring: 8, Node: "a"})
	recB := NewRecorder(RecorderOptions{Ring: 8, Node: "b"})

	trA := recA.Start("/v1/verify", "q00000001")
	outbound := trA.Propagation()
	if !outbound.Valid() {
		t.Fatal("local trace propagates an invalid traceparent")
	}

	// Simulate the peer hop through the wire format.
	parsed, ok := ParseTraceparent(outbound.String())
	if !ok {
		t.Fatal("propagated header failed to parse")
	}
	trB := recB.StartRemote("fleet.export", "", parsed)
	if trB.HexTraceID() != trA.HexTraceID() {
		t.Fatalf("segment trace id %q != origin %q", trB.HexTraceID(), trA.HexTraceID())
	}
	trB.Finish()
	trA.Finish()

	doc := trB.JSON()
	if doc.Node != "b" || doc.TraceID != trA.HexTraceID() {
		t.Fatalf("segment doc node/trace_id = %q/%q", doc.Node, doc.TraceID)
	}
	if doc.ParentSpan == "" || doc.ParentSpan != trA.JSON().SpanID {
		t.Fatalf("segment parent span %q, want origin span id %q", doc.ParentSpan, trA.JSON().SpanID)
	}
	if trA.JSON().ParentSpan != "" {
		t.Fatal("root segment must have no parent span")
	}

	// Both lookup paths work: job id locally, hex trace id fleet-wide.
	if got := recA.Segments("q00000001"); len(got) != 1 || got[0] != trA {
		t.Fatal("lookup by job id failed")
	}
	if got := recA.Segments(trA.HexTraceID()); len(got) != 1 || got[0] != trA {
		t.Fatal("lookup by hex trace id failed")
	}
	segs := recB.Segments(trA.HexTraceID())
	if len(segs) != 1 || segs[0] != trB {
		t.Fatalf("Segments returned %d traces, want the one segment", len(segs))
	}

	// An invalid parent degrades to a fresh root trace.
	fresh := recB.StartRemote("/v1/infer", "", TraceParent{})
	if fresh.HexTraceID() == trA.HexTraceID() || fresh.JSON().ParentSpan != "" {
		t.Fatal("invalid parent must mint a fresh root trace")
	}

	// Nil safety for the new surface.
	var nilTrace *Trace
	if nilTrace.Propagation().Valid() || nilTrace.HexTraceID() != "" {
		t.Fatal("nil trace must propagate an invalid traceparent")
	}
	var nilRec *Recorder
	if nilRec.StartRemote("r", "", parsed) != nil || nilRec.Segments("x") != nil {
		t.Fatal("nil recorder must no-op")
	}
}
