// HTTP wire types for the pmsd serving layer: mapping specs, node and
// template references, and the strict JSON decoding shared by every
// endpoint. All request validation lives here, before any work is
// admitted to the worker pool, so malformed traffic is rejected with a
// 4xx without consuming queue capacity.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/baseline"
	"repro/internal/coloring"
	"repro/internal/colormap"
	"repro/internal/labeltree"
	"repro/internal/obsv"
	"repro/internal/template"
	"repro/internal/tree"
)

// Resource ceilings for lazily materialized mappings. COLOR's retriever
// table is O(2^N) with N = 2^(m-1)+m-1, so m is capped where the table
// stays in the tens of megabytes; RANDOM materializes the whole tree.
const (
	maxSpecLevels   = 40      // arithmetic mappings: no per-node state
	maxColorM       = 5       // N = 20 → 2^20-entry retriever table
	minColorM       = 2       // canonical parameters need m ≥ 2
	maxSpecModules  = 1 << 16 // labeltree micro table stays tiny
	maxRandomLevels = 22      // 2^22 × 4 B ≈ 16 MiB dense array
)

// specAlgs is the closed list of registry algorithms. Validate, Key and
// build must agree on it exactly — the drift test locks the three
// together, so an alg added to one surface cannot silently pass (or
// poison the cache) through another.
var specAlgs = []string{"color", "labeltree", "mod", "levelcyclic", "random"}

// MappingSpec identifies one mapping instance in the registry. It is the
// cache key of the serving layer: requests carrying the same spec share
// one lazily built Retriever / Mapping.
type MappingSpec struct {
	// Alg selects the algorithm: color | labeltree | mod | levelcyclic | random.
	Alg string `json:"alg"`
	// Levels is the tree height H (number of levels).
	Levels int `json:"levels"`
	// M is the canonical COLOR exponent (modules = 2^m - 1); color only.
	M int `json:"m,omitempty"`
	// Modules is the module count for labeltree/mod/levelcyclic/random.
	Modules int `json:"modules,omitempty"`
	// Seed seeds the random baseline mapping.
	Seed int64 `json:"seed,omitempty"`
	// Policy selects the labeltree MACRO-LABEL policy: band-cyclic | balanced.
	Policy string `json:"policy,omitempty"`
}

// Validate checks the spec against the serving resource ceilings. It is
// called before admission, so invalid specs cost no queue slot.
func (sp MappingSpec) Validate() error {
	if sp.Levels < 1 || sp.Levels > maxSpecLevels {
		return fmt.Errorf("levels %d out of range [1,%d]", sp.Levels, maxSpecLevels)
	}
	switch sp.Alg {
	case "color":
		if sp.M < minColorM || sp.M > maxColorM {
			return fmt.Errorf("color exponent m %d out of range [%d,%d]", sp.M, minColorM, maxColorM)
		}
		if _, err := colormap.Canonical(sp.Levels, sp.M); err != nil {
			return err
		}
	case "labeltree":
		if sp.Modules < 3 || sp.Modules > maxSpecModules {
			return fmt.Errorf("labeltree modules %d out of range [3,%d]", sp.Modules, maxSpecModules)
		}
		switch sp.Policy {
		case "", "band-cyclic", "balanced":
		default:
			return fmt.Errorf("unknown labeltree policy %q", sp.Policy)
		}
		if _, err := labeltree.NewParams(sp.Levels, sp.Modules); err != nil {
			return err
		}
	case "mod", "levelcyclic":
		if sp.Modules < 1 || sp.Modules > maxSpecModules {
			return fmt.Errorf("%s modules %d out of range [1,%d]", sp.Alg, sp.Modules, maxSpecModules)
		}
	case "random":
		if sp.Modules < 1 || sp.Modules > maxSpecModules {
			return fmt.Errorf("random modules %d out of range [1,%d]", sp.Modules, maxSpecModules)
		}
		if sp.Levels > maxRandomLevels {
			return fmt.Errorf("random levels %d above materialization cap %d", sp.Levels, maxRandomLevels)
		}
	case "":
		return errors.New("missing mapping.alg")
	default:
		return fmt.Errorf("unknown mapping alg %q", sp.Alg)
	}
	return nil
}

// keyCache memoizes MappingSpec.Key: the canonical key is formatted on
// every serving request (registry resolve, flight-recorder events) and
// the Sprintf allocations feed GC pressure on the hot path. The cache
// is bounded — past keyCacheMax distinct specs, new ones format
// directly, so a spec-churning client cannot grow the map.
var (
	keyCache     sync.Map // MappingSpec -> string
	keyCacheSize atomic.Int64
)

const keyCacheMax = 512

// Key returns the canonical registry key. Fields irrelevant to the chosen
// algorithm are normalized away so equivalent specs share a cache entry.
func (sp MappingSpec) Key() string {
	if v, ok := keyCache.Load(sp); ok {
		return v.(string)
	}
	k := sp.formatKey()
	if keyCacheSize.Load() < keyCacheMax {
		if _, loaded := keyCache.LoadOrStore(sp, k); !loaded {
			keyCacheSize.Add(1)
		}
	}
	return k
}

func (sp MappingSpec) formatKey() string {
	switch sp.Alg {
	case "color":
		return fmt.Sprintf("color/H=%d/m=%d", sp.Levels, sp.M)
	case "labeltree":
		policy := sp.Policy
		if policy == "" {
			policy = "band-cyclic"
		}
		return fmt.Sprintf("labeltree/H=%d/M=%d/%s", sp.Levels, sp.Modules, policy)
	case "random":
		return fmt.Sprintf("random/H=%d/M=%d/seed=%d", sp.Levels, sp.Modules, sp.Seed)
	case "mod", "levelcyclic":
		return fmt.Sprintf("%s/H=%d/M=%d", sp.Alg, sp.Levels, sp.Modules)
	default:
		// Unknown algs never reach the registry (Validate rejects them up
		// front); the sentinel prefix keeps a validator/key drift from
		// minting a valid-looking, cacheable key.
		return "!invalid/" + sp.Alg
	}
}

// specRejected marks a registry build failure caused by the spec itself
// rather than server state. Validate is meant to reject these before
// admission; if one slips through (validator/build drift), the serving
// layer still answers 400, never a 500 for a request-shaped problem.
type specRejected struct{ err error }

func (e *specRejected) Error() string { return e.err.Error() }
func (e *specRejected) Unwrap() error { return e.err }

// sizeOf returns the mapping's measured resident size when it reports
// one, falling back to a fixed overhead for the closed-form mappings
// that keep no per-node state.
func sizeOf(m coloring.Mapping) int64 {
	if s, ok := m.(coloring.Sized); ok {
		return s.SizeBytes()
	}
	return 64
}

// build materializes the mapping and measures its resident size for the
// registry's byte budget. Sizes come from the mappings' own SizeBytes
// (live table lengths), not parameter-derived estimates — the
// size-accounting test pins the two against each other so LRU eviction
// stays honest. Validate must have succeeded; any error here is wrapped
// as specRejected so a drift surfaces as a 400.
func (sp MappingSpec) build() (coloring.Mapping, int64, error) {
	switch sp.Alg {
	case "color":
		p, err := colormap.Canonical(sp.Levels, sp.M)
		if err != nil {
			return nil, 0, &specRejected{err}
		}
		r, err := colormap.NewRetriever(p)
		if err != nil {
			return nil, 0, &specRejected{err}
		}
		m := r.Mapping()
		return m, sizeOf(m), nil
	case "labeltree":
		policy := labeltree.BandCyclic
		if sp.Policy == "balanced" {
			policy = labeltree.Balanced
		}
		lt, err := labeltree.NewWithPolicy(sp.Levels, sp.Modules, policy)
		if err != nil {
			return nil, 0, &specRejected{err}
		}
		return lt, sizeOf(lt), nil
	case "mod":
		m := baseline.Modulo(tree.New(sp.Levels), sp.Modules)
		return m, sizeOf(m), nil
	case "levelcyclic":
		m := baseline.LevelCyclic(tree.New(sp.Levels), sp.Modules)
		return m, sizeOf(m), nil
	case "random":
		m := baseline.Random(tree.New(sp.Levels), sp.Modules, sp.Seed)
		return m, sizeOf(m), nil
	default:
		return nil, 0, &specRejected{fmt.Errorf("unknown mapping alg %q", sp.Alg)}
	}
}

// NodeRef addresses a tree node as (index, level) on the wire.
type NodeRef struct {
	Index int64 `json:"index"`
	Level int   `json:"level"`
}

// Node converts the reference to the internal node type.
func (nr NodeRef) Node() tree.Node { return tree.V(nr.Index, nr.Level) }

// validateNode checks the node against the spec's tree.
func (nr NodeRef) validate(levels int) error {
	n := nr.Node()
	if !n.Valid() || n.Level >= levels {
		return fmt.Errorf("node %v outside %d-level tree", n, levels)
	}
	return nil
}

// ColorRequest asks for the module of one node (Node) or a batch (Nodes).
// Exactly one of the two must be set. Singleton requests are eligible for
// server-side coalescing; explicit batches run as one worker task.
type ColorRequest struct {
	Mapping MappingSpec `json:"mapping"`
	Node    *NodeRef    `json:"node,omitempty"`
	Nodes   []NodeRef   `json:"nodes,omitempty"`
}

// ColorResponse carries the module assignments, in request order.
type ColorResponse struct {
	Modules int   `json:"modules"` // module count of the mapping
	Colors  []int `json:"colors"`  // one module id per requested node
}

// InstanceRef is an elementary template instance on the wire.
type InstanceRef struct {
	Kind   string  `json:"kind"` // S | L | P
	Anchor NodeRef `json:"anchor"`
	Size   int64   `json:"size"`
}

// instance converts the reference, validating the kind.
func (ir InstanceRef) instance() (template.Instance, error) {
	var kind template.Kind
	switch ir.Kind {
	case "S":
		kind = template.Subtree
	case "L":
		kind = template.Level
	case "P":
		kind = template.Path
	default:
		return template.Instance{}, fmt.Errorf("unknown template kind %q (want S, L or P)", ir.Kind)
	}
	return template.Instance{Kind: kind, Anchor: ir.Anchor.Node(), Size: ir.Size}, nil
}

// TemplateCostRequest evaluates template conflicts under a mapping, in one
// of three modes:
//
//   - Parts set: conflicts of the composite instance C(D,c) = ⊎ Parts;
//   - Anchor set: conflicts of the single elementary instance
//     (Kind, Anchor, Size);
//   - neither: exact worst case over the whole family of (Kind, Size)
//     instances — bounded by the server's family-levels cap, since it
//     enumerates every instance of the tree.
type TemplateCostRequest struct {
	Mapping MappingSpec   `json:"mapping"`
	Kind    string        `json:"kind,omitempty"`
	Size    int64         `json:"size,omitempty"`
	Anchor  *NodeRef      `json:"anchor,omitempty"`
	Parts   []InstanceRef `json:"parts,omitempty"`
}

// TemplateCostResponse reports the conflict count; for family mode the
// witness instance attaining the worst case is included.
type TemplateCostResponse struct {
	Conflicts int          `json:"conflicts"`
	Items     int64        `json:"items"`             // nodes accessed by the costed instance(s)
	Witness   *InstanceRef `json:"witness,omitempty"` // family mode only
}

// SimulateRequest replays a bounded trace — batches of heap (BFS) node
// indices — through the parallel memory system simulator.
type SimulateRequest struct {
	Mapping MappingSpec `json:"mapping"`
	Batches [][]int64   `json:"batches"`
}

// SimulateResponse summarizes the replay.
type SimulateResponse struct {
	Batches     int64   `json:"batches"`
	Requests    int64   `json:"requests"`
	Cycles      int64   `json:"cycles"`
	Conflicts   int64   `json:"conflicts"`
	MaxQueue    int     `json:"max_queue"`
	Utilization float64 `json:"utilization"`
	// IdleSteps counts Step calls on an idle system. The SubmitDrain
	// replay never steps idle, so it is 0 today, but the field is carried
	// so the wire format matches pms.Stats rather than silently dropping
	// a counter.
	IdleSteps int64 `json:"idle_steps"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status with a client-facing message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeJSON strictly decodes one JSON value from the request body:
// unknown fields, trailing garbage, numeric overflow and bodies above
// maxBytes are all 4xx errors, never panics — the decode fuzz test locks
// this in.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body above %d bytes", maxBytes)}
		}
		return badRequest("malformed JSON: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// decodeColorRequest is handleColor's decode entry. It reads the body
// once, up to maxBytes, and decodes it with scanColorRequest. A body the
// scanner declines, or one over the limit or cut short by a read error,
// goes to decodeJSON as the same bytes: those already read are put back
// in front of the unread rest. So every status and message stays
// decodeJSON's, including its 400-vs-413 split on over-limit bodies.
func decodeColorRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, req *ColorRequest) *apiError {
	body, err := readBody(r, maxBytes)
	if err == nil && int64(len(body)) <= maxBytes && scanColorRequest(body, req) {
		return nil
	}
	r.Body = struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(body), r.Body), r.Body}
	return decodeJSON(w, r, maxBytes, req)
}

// readBody reads at most limit+1 bytes of r's body, into one buffer
// when Content-Length is declared and within limit.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n >= 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(r.Body, limit+1))
	return buf.Bytes(), err
}

// scanColorRequest decodes the canonical subset of ColorRequest JSON
// into req without reflection: one object whose keys are exactly the
// wire names (any order, none repeated), strings of printable ASCII
// without escapes, integers in JSON grammar that fit their field, and
// JSON whitespace between tokens. Every such body decodes under
// encoding/json to the same value. It reports false, leaving req
// untouched, on anything else: case-variant keys (encoding/json folds
// case, even ſ to s), repeated keys (encoding/json merges a repeated
// object field by field), null, fractions, exponents, escapes,
// non-ASCII bytes, unknown keys and malformed input.
func scanColorRequest(body []byte, req *ColorRequest) bool {
	s := colorScanner{b: body}
	var out ColorRequest
	if !s.request(&out) {
		return false
	}
	s.ws()
	if s.i != len(s.b) {
		return false
	}
	*req = out
	return true
}

// colorScanner is scanColorRequest's cursor over the body.
type colorScanner struct {
	b []byte
	i int
}

// The scan loops below work on local copies of the cursor: through the
// pointer, every byte would cost a load and a store of s.i.

func (s *colorScanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// token skips whitespace and consumes one byte, returning it (0 at the
// end of the body).
func (s *colorScanner) token() byte {
	s.ws()
	if s.i == len(s.b) {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return c
}

// peek skips whitespace and reports whether the next byte is c,
// consuming it if so.
func (s *colorScanner) peek(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the body.
func (s *colorScanner) str() ([]byte, bool) {
	if s.token() != '"' {
		return nil, false
	}
	b, start := s.b, s.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int scans a JSON integer that fits in a signed integer of the given
// bit size.
func (s *colorScanner) int(bits int) (int64, bool) {
	s.ws()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	s.i = i
	// 19 digits cannot overflow u; a leading zero must stand alone.
	digits := i - start
	if digits == 0 || digits > 19 || (b[start] == '0' && digits > 1) {
		return 0, false
	}
	limit := uint64(1) << (bits - 1)
	if neg {
		return -int64(u), u <= limit
	}
	return int64(u), u < limit
}

func (s *colorScanner) intField(dst *int) bool {
	v, ok := s.int(strconv.IntSize)
	*dst = int(v)
	return ok
}

func (s *colorScanner) int64Field(dst *int64) bool {
	v, ok := s.int(64)
	*dst = v
	return ok
}

func (s *colorScanner) strField(dst *string) bool {
	v, ok := s.str()
	*dst = string(v)
	return ok
}

// object scans one object, handing each key to field with the cursor on
// its value. field reports false to decline the body.
func (s *colorScanner) object(field func(key []byte) bool) bool {
	if s.token() != '{' {
		return false
	}
	if s.peek('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || s.token() != ':' || !field(key) {
			return false
		}
		switch s.token() {
		case ',':
		case '}':
			return true
		default:
			return false
		}
	}
}

// once marks bit in seen, reporting false for a repeated key.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (s *colorScanner) request(req *ColorRequest) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "mapping":
			return once(&seen, 1) && s.mapping(&req.Mapping)
		case "node":
			if !once(&seen, 2) {
				return false
			}
			req.Node = new(NodeRef)
			return s.node(req.Node)
		case "nodes":
			if !once(&seen, 4) {
				return false
			}
			var ok bool
			req.Nodes, ok = s.nodes()
			return ok
		}
		return false
	})
}

func (s *colorScanner) mapping(sp *MappingSpec) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "alg":
			return once(&seen, 1) && s.strField(&sp.Alg)
		case "levels":
			return once(&seen, 2) && s.intField(&sp.Levels)
		case "m":
			return once(&seen, 4) && s.intField(&sp.M)
		case "modules":
			return once(&seen, 8) && s.intField(&sp.Modules)
		case "seed":
			return once(&seen, 16) && s.int64Field(&sp.Seed)
		case "policy":
			return once(&seen, 32) && s.strField(&sp.Policy)
		}
		return false
	})
}

func (s *colorScanner) node(nr *NodeRef) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "index":
			return once(&seen, 1) && s.int64Field(&nr.Index)
		case "level":
			return once(&seen, 2) && s.intField(&nr.Level)
		}
		return false
	})
}

// nodes scans an array of node objects; "[]" yields a non-nil empty
// slice, as encoding/json decodes it. The slice is sized by counting the
// '{' before the first ']', capped at one 16-byte NodeRef per 16 bytes
// of that span so a body of braces cannot allocate more than its own
// size. json.Marshal writes every node object in 21 bytes or more, so
// the cap binds only on other bodies, which grow by append.
func (s *colorScanner) nodes() ([]NodeRef, bool) {
	if s.token() != '[' {
		return nil, false
	}
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]NodeRef, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/16))
	if s.peek(']') {
		return out, true
	}
	for {
		var nr NodeRef
		if !s.node(&nr) {
			return nil, false
		}
		out = append(out, nr)
		switch s.token() {
		case ',':
		case ']':
			return out, true
		default:
			return nil, false
		}
	}
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// clientInfoFromHeaders parses the X-Client-* attempt metadata a
// resilient client stamps on each attempt, so server traces join up
// with the client's retry/hedge schedule under one request ID. Absent
// or malformed headers yield the zero ClientInfo, which the trace
// layer treats as "no client metadata".
func clientInfoFromHeaders(h http.Header) obsv.ClientInfo {
	v := h.Get(obsv.HeaderClientAttempt)
	if v == "" {
		return obsv.ClientInfo{} // without Atoi's error allocation
	}
	attempt, err := strconv.Atoi(v)
	if err != nil || attempt <= 0 {
		return obsv.ClientInfo{}
	}
	elapsed, _ := strconv.ParseInt(h.Get(obsv.HeaderClientElapsedUS), 10, 64)
	return obsv.ClientInfo{
		Attempt:   attempt,
		ElapsedUS: elapsed,
		Hedge:     h.Get(obsv.HeaderClientHedge) == "1",
	}
}

// writeError writes the error body; 429s additionally advertise a
// Retry-After so well-behaved clients back off.
func writeError(w http.ResponseWriter, err *apiError) {
	if err.status == http.StatusTooManyRequests || err.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, err.status, ErrorResponse{Error: err.msg})
}
