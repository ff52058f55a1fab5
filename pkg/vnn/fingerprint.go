package vnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"

	"repro/internal/nn"
)

// fingerprintVersion tags the canonical byte layout hashed by Fingerprint.
// Bump it whenever the layout changes so persisted or remote caches never
// confuse hashes computed under different layouts.
const fingerprintVersion = 1

// MarshalNetwork renders net as compact canonical JSON: the wire form the
// vnnd service accepts in requests and the byte-stable encoding scripts
// can store alongside results. The network is validated first, so the
// bytes always describe a structurally sound network. For a fixed network
// the output is deterministic (struct fields in declaration order, no
// maps), making the bytes themselves safe to hash or diff.
func MarshalNetwork(net *Network) ([]byte, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(net)
	if err != nil {
		return nil, fmt.Errorf("vnn: marshal network %q: %w", net.Name, err)
	}
	return data, nil
}

// UnmarshalNetwork parses a network from its JSON form and validates it —
// the inverse of MarshalNetwork and the single decode path requests into
// the verification service go through. The network it returns is packed
// (see nn.Network.Pack), so it may be served from many goroutines at once.
//
// A document in MarshalNetwork's canonical shape is decoded in one pass
// (decodeNetwork); anything else, and anything that pass refuses, is
// decoded by encoding/json, which stays the reference for what a document
// means and for every error text.
func UnmarshalNetwork(data []byte) (*Network, error) {
	if n, ok := decodeNetwork(data); ok {
		return n, nil
	}
	return unmarshalNetworkJSON(data)
}

// unmarshalNetworkJSON is UnmarshalNetwork by encoding/json.
func unmarshalNetworkJSON(data []byte) (*Network, error) {
	var n nn.Network
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, fmt.Errorf("vnn: unmarshal network: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	// The lazy re-pack inside the forward pass is not synchronized, and a
	// decoded network may go straight to concurrent serving.
	n.Pack()
	return &n, nil
}

// Fingerprint returns a content hash identifying the compiled artifact
// that (net, region, opts) would produce: two workloads share a hash
// exactly when they share every layer's activation, shape, weights and
// biases bit-for-bit, the same region box and linear constraints, and the
// same compile-relevant options. The hash is what the vnnd compile cache
// keys on, so identical workloads from different clients deduplicate to
// one vnn.Compile.
//
// Metadata that cannot influence a verification answer is deliberately
// excluded: network, input, output and constraint names. Query-time
// options (MaxNodes, Workers, Progress) are excluded too, because
// compilation never reads them; Tighten is the one option hashed. The
// compiled artifact is a function of the hash: a cache hit, a fleet
// import and a recovered registry version carry bit for bit the bounds a
// fresh Compile would give.
//
// Floats are hashed as their IEEE-754 bit patterns, so any perturbation a
// float64 can represent — one ulp on one weight — changes the hash.
func Fingerprint(net *Network, region *Region, opts Options) (string, error) {
	if err := net.Validate(); err != nil {
		return "", err
	}
	if err := region.Validate(net); err != nil {
		return "", err
	}
	w := newFPWriter()
	w.u64(fingerprintVersion)

	w.u64(uint64(len(net.Layers)))
	for _, l := range net.Layers {
		w.u64(uint64(l.Act))
		w.u64(uint64(l.OutDim()))
		w.u64(uint64(l.InDim()))
		for _, row := range l.W {
			for _, v := range row {
				w.f64(v)
			}
		}
		for _, b := range l.B {
			w.f64(b)
		}
	}

	w.u64(uint64(len(region.Box)))
	for _, iv := range region.Box {
		w.f64(iv.Lo)
		w.f64(iv.Hi)
	}
	// Constraint order is part of the canonical form (it is also the order
	// the encoder ingests rows in); coefficients within a constraint are
	// canonicalized by sorting on the input index.
	w.u64(uint64(len(region.Linear)))
	for _, lc := range region.Linear {
		w.u64(uint64(lc.Sense))
		w.f64(lc.RHS)
		idxs := make([]int, 0, len(lc.Coeffs))
		for i := range lc.Coeffs {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		w.u64(uint64(len(idxs)))
		for _, i := range idxs {
			w.u64(uint64(i))
			w.f64(lc.Coeffs[i])
		}
	}

	if opts.Tighten {
		w.u64(1)
	} else {
		w.u64(0)
	}
	return w.sum("vnn1-"), nil
}

// MonitorWorkloadFingerprint identifies a monitor-build workload before
// the build runs: the compile workload the monitor attaches to (its
// Fingerprint), the build dataset (floats hashed as IEEE-754 bits, order
// included — pattern sets are insertion-ordered) and the monitor options.
// It is the key the vnnd monitor cache deduplicates builds under, the
// same way Fingerprint keys the compile cache. The content hash of the
// *built* artifact is Monitor.Fingerprint.
func MonitorWorkloadFingerprint(networkFingerprint string, data [][]float64, opts MonitorOptions) string {
	w := newFPWriter()
	w.u64(fingerprintVersion)
	w.str(networkFingerprint)
	w.u64(uint64(opts.Gamma))
	w.u64(uint64(len(opts.Layers)))
	for _, li := range opts.Layers {
		w.u64(uint64(li))
	}
	w.u64(uint64(len(data)))
	for _, row := range data {
		w.u64(uint64(len(row)))
		for _, v := range row {
			w.f64(v)
		}
	}
	return w.sum("vnnmw1-")
}

// fpWriter streams fixed-width little-endian values into a hash through
// a fixed block, so hashing a value does not hand a fresh buffer to the
// hash.Hash interface. The hashed byte stream is the values in order,
// whatever the block boundaries, so the fingerprints do not depend on
// them.
type fpWriter struct {
	h   hash.Hash
	buf [512]byte
	n   int
}

func newFPWriter() *fpWriter { return &fpWriter{h: sha256.New()} }

func (w *fpWriter) u64(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) str(s string) {
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

// sum flushes the block and returns prefix followed by the hash in
// lowercase hex.
func (w *fpWriter) sum(prefix string) string {
	w.flush()
	var sum [sha256.Size]byte
	out := make([]byte, len(prefix)+hex.EncodedLen(sha256.Size))
	hex.Encode(out[copy(out, prefix):], w.h.Sum(sum[:0]))
	return string(out)
}
