package obs

import (
	"encoding/hex"
	"math/rand/v2"
)

// TraceParent is a parsed W3C trace-context traceparent header
// (version 00): a 16-byte trace id shared by every segment of a
// distributed trace, the 8-byte span id of the propagating segment, and
// the trace flags (bit 0 = sampled). The zero value is invalid, which
// is what every nil-safe accessor returns.
type TraceParent struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// Valid reports whether the trace id and span id are both non-zero, the
// W3C validity rule.
func (tp TraceParent) Valid() bool {
	return tp.TraceID != [16]byte{} && tp.SpanID != [8]byte{}
}

// String renders the header value: 00-<32 hex>-<16 hex>-<2 hex>.
func (tp TraceParent) String() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, '0', '0', '-')
	buf = hex.AppendEncode(buf, tp.TraceID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, tp.SpanID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, []byte{tp.Flags})
	return string(buf)
}

// HexTraceID returns the 32-hex-char trace id, the fleet-wide key a
// trace's segments share.
func (tp TraceParent) HexTraceID() string {
	return hex.EncodeToString(tp.TraceID[:])
}

// ParseTraceparent parses a traceparent header value. Every field is
// lowercase hex. A version-00 header is exactly its four fields; a later
// version is accepted if those four fields parse, and anything after them
// must start with '-' (the spec's forward-compatibility rule; trailing
// fields are ignored). Version ff and all-zero ids are rejected.
func ParseTraceparent(s string) (TraceParent, bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' ||
		!lowerHex(s[0:2]) || !lowerHex(s[3:35]) || !lowerHex(s[36:52]) || !lowerHex(s[53:55]) {
		return TraceParent{}, false
	}
	switch {
	case s[:2] == "ff", // forbidden
		s[:2] == "00" && len(s) != 55,
		len(s) > 55 && s[55] != '-':
		return TraceParent{}, false
	}
	var tp TraceParent
	var flags [1]byte
	hex.Decode(tp.TraceID[:], []byte(s[3:35]))
	hex.Decode(tp.SpanID[:], []byte(s[36:52]))
	hex.Decode(flags[:], []byte(s[53:55]))
	if !tp.Valid() {
		return TraceParent{}, false
	}
	tp.Flags = flags[0]
	return tp, true
}

// lowerHex reports whether s is all lowercase hex digits.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// mintTraceParent makes a fresh sampled trace identity from the
// runtime's cheap random source. Uniqueness needs no coordination:
// 2^128 ids across a fleet collide with negligible probability.
func mintTraceParent() TraceParent {
	var tp TraceParent
	putUint64(tp.TraceID[0:8], rand.Uint64())
	putUint64(tp.TraceID[8:16], rand.Uint64())
	putUint64(tp.SpanID[:], rand.Uint64())
	tp.Flags = 1     // sampled
	if !tp.Valid() { // astronomically unlikely zero draw
		tp.TraceID[0], tp.SpanID[0] = 1, 1
	}
	return tp
}

// mintSpanID draws a fresh non-zero span id.
func mintSpanID() [8]byte {
	var id [8]byte
	putUint64(id[:], rand.Uint64())
	if id == [8]byte{} {
		id[0] = 1
	}
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}
