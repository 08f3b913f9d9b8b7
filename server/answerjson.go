package server

import (
	"bytes"
	"math"
	"strconv"

	"github.com/vossketch/vos"
)

// The JSON kernel of the three hot /v1/ bodies: the pair estimate, the top-K
// ranking and the top-K request. The Append side writes a value exactly as
// encoding/json does — field order, omitempty, its float rule — and the Scan
// side reads only that canonical form: the exact keys in declaration order,
// no whitespace, numbers by the JSON grammar. Either side answers false for
// what it does not take (a non-finite float, a mode string other than the two
// the API knows; a reordered, indented or misspelt body) and its caller goes
// to encoding/json, which stays the path for every other valid input and the
// reference FuzzAnswerJSON and TestAnswerJSONDifferential hold the kernel to.
// The exception is an answer the server cannot append: only a non-finite
// estimate is, encoding/json has no body for it either, and it is a 500.

// AppendEstimate appends est as GET /v1/similarity answers it (the line
// json.Encoder.Encode writes); false when a field is not finite.
func AppendEstimate(dst []byte, est vos.Estimate) ([]byte, bool) {
	if !finiteEstimate(&est) {
		return dst, false
	}
	return append(appendEstimate(dst, &est), '\n'), true
}

// AppendTopK appends top as POST /v1/topk answers it: nil as null, an empty
// ranking as []. False when an estimate holds a non-finite field.
func AppendTopK(dst []byte, top []vos.TopKResult) ([]byte, bool) {
	if top == nil {
		return append(dst, "null\n"...), true
	}
	dst = append(dst, '[')
	for i := range top {
		if !finiteEstimate(&top[i].Estimate) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"user":`...)
		dst = strconv.AppendUint(dst, uint64(top[i].User), 10)
		dst = append(dst, `,"estimate":`...)
		dst = append(appendEstimate(dst, &top[i].Estimate), '}')
	}
	return append(dst, "]\n"...), true
}

// AppendTopKRequest appends req as json.Marshal writes it (no newline: it is
// a request body, not an Encode line). False when At is not finite or Mode
// is a string other than "", "exact" and "ann" — the one string of the three
// shapes, whose escaping stays encoding/json's.
func AppendTopKRequest(dst []byte, req TopKRequest) ([]byte, bool) {
	if !finite(req.At) || (req.Mode != "" && req.Mode != "exact" && req.Mode != "ann") {
		return dst, false
	}
	dst = append(dst, `{"user":`...)
	dst = strconv.AppendUint(dst, uint64(req.User), 10)
	dst = append(dst, `,"candidates":`...)
	if req.Candidates == nil {
		dst = append(dst, "null"...) // no omitempty: nil and empty travel apart
	} else {
		dst = append(dst, '[')
		for i, c := range req.Candidates {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, uint64(c), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(req.N), 10)
	if req.At != 0 {
		dst = appendFloat(append(dst, `,"at":`...), req.At)
	}
	if req.Mode != "" {
		dst = append(append(append(dst, `,"mode":"`...), req.Mode...), '"')
	}
	return append(dst, '}'), true
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

func finiteEstimate(e *vos.Estimate) bool {
	return finite(e.Common) && finite(e.CommonClamped) && finite(e.Jaccard) &&
		finite(e.SymmetricDifference) && finite(e.Alpha) && finite(e.Beta)
}

// appendEstimate appends the object of an estimate whose floats are finite.
func appendEstimate(dst []byte, e *vos.Estimate) []byte {
	dst = appendFloat(append(dst, `{"common":`...), e.Common)
	dst = appendFloat(append(dst, `,"common_clamped":`...), e.CommonClamped)
	dst = appendFloat(append(dst, `,"jaccard":`...), e.Jaccard)
	dst = appendFloat(append(dst, `,"symmetric_difference":`...), e.SymmetricDifference)
	dst = appendFloat(append(dst, `,"alpha":`...), e.Alpha)
	dst = appendFloat(append(dst, `,"beta":`...), e.Beta)
	dst = strconv.AppendInt(append(dst, `,"cardinality_u":`...), e.CardinalityU, 10)
	dst = strconv.AppendInt(append(dst, `,"cardinality_v":`...), e.CardinalityV, 10)
	if e.Saturated {
		dst = append(dst, `,"saturated":true`...)
	}
	return append(dst, '}')
}

// appendFloat is encoding/json's float64 rule: the shortest digits that
// round-trip, in 'f' form, or 'e' below 1e-6 and from 1e21 with a
// two-digit negative exponent's leading zero dropped (e-09 → e-9).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// ScanEstimate reads a canonical GET /v1/similarity answer. False (with the
// zero value) means "not canonical", not "not JSON": decode it with
// encoding/json.
func ScanEstimate(data []byte) (vos.Estimate, bool) {
	s := scanner{data: data}
	if est := s.estimate(); s.end() {
		return est, true
	}
	return vos.Estimate{}, false
}

// ScanTopK reads a canonical POST /v1/topk answer; false as ScanEstimate's.
func ScanTopK(data []byte) ([]vos.TopKResult, bool) {
	s := scanner{data: data}
	s.lit("[")
	// Every result, and nothing else in a canonical body, ends in "}}"; the
	// length bounds what a body of nothing but braces could make this reserve.
	top := make([]vos.TopKResult, 0, min(bytes.Count(data, []byte("}}")), len(data)/minResultJSON))
	for !s.tryLit("]") && !s.bad {
		if len(top) > 0 {
			s.lit(",")
		}
		var r vos.TopKResult
		s.lit(`{"user":`)
		r.User = vos.User(s.uint())
		s.lit(`,"estimate":`)
		r.Estimate = s.estimate()
		s.lit("}")
		top = append(top, r)
	}
	if !s.end() {
		return nil, false
	}
	return top, true
}

// estimate reads the object appendEstimate writes.
func (s *scanner) estimate() (e vos.Estimate) {
	s.lit(`{"common":`)
	e.Common = s.float()
	s.lit(`,"common_clamped":`)
	e.CommonClamped = s.float()
	s.lit(`,"jaccard":`)
	e.Jaccard = s.float()
	s.lit(`,"symmetric_difference":`)
	e.SymmetricDifference = s.float()
	s.lit(`,"alpha":`)
	e.Alpha = s.float()
	s.lit(`,"beta":`)
	e.Beta = s.float()
	s.lit(`,"cardinality_u":`)
	e.CardinalityU = s.int()
	s.lit(`,"cardinality_v":`)
	e.CardinalityV = s.int()
	e.Saturated = s.tryLit(`,"saturated":true`) // omitempty: never "false"
	s.lit("}")
	return e
}

// minResultJSON is the shortest a ranking's result can be on the wire.
const minResultJSON = len(`{"user":0,"estimate":{"common":0,"common_clamped":0,"jaccard":0,"symmetric_difference":0,"alpha":0,"beta":0,"cardinality_u":0,"cardinality_v":0}}`)

// ScanTopKRequest reads a canonical POST /v1/topk body; false as
// ScanEstimate's, so a misspelt field still gets DecodeStrictJSON's refusal.
func ScanTopKRequest(data []byte) (TopKRequest, bool) {
	s := scanner{data: data}
	var req TopKRequest
	s.lit(`{"user":`)
	req.User = vos.User(s.uint())
	s.lit(`,"candidates":`)
	if !s.tryLit("null") {
		s.lit("[")
		// One comma a candidate, and at most four more in the whole body.
		req.Candidates = make([]vos.User, 0, bytes.Count(data, []byte(",")))
		for !s.tryLit("]") && !s.bad {
			if len(req.Candidates) > 0 {
				s.lit(",")
			}
			req.Candidates = append(req.Candidates, vos.User(s.uint()))
		}
	}
	s.lit(`,"n":`)
	n := s.int()
	if req.N = int(n); int64(req.N) != n {
		s.bad = true
	}
	if s.tryLit(`,"at":`) {
		req.At = s.float()
	}
	switch {
	case s.tryLit(`,"mode":"exact"`):
		req.Mode = "exact"
	case s.tryLit(`,"mode":"ann"`):
		req.Mode = "ann"
	}
	s.lit("}")
	if !s.end() {
		return TopKRequest{}, false
	}
	return req, true
}

// scanner walks a canonical body. The first mismatch sets bad and no literal
// matches after it, so callers check once, in end.
type scanner struct {
	data []byte
	i    int
	bad  bool
}

// end reports whether the body was read whole and well: nothing may follow
// the value but the newline Encoder.Encode ends its line with.
func (s *scanner) end() bool {
	s.tryLit("\n")
	return !s.bad && s.i == len(s.data)
}

func (s *scanner) lit(l string) {
	if !s.tryLit(l) {
		s.bad = true
	}
}

func (s *scanner) tryLit(l string) bool {
	if s.bad || len(s.data)-s.i < len(l) || string(s.data[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// uint consumes a JSON integer, 0|[1-9][0-9]*, that fits 64 bits; a digit
// after a leading zero is left for the next lit to refuse.
func (s *scanner) uint() (v uint64) {
	if s.bad || s.tryLit("0") {
		return 0
	}
	start := s.i
	for ; s.i < len(s.data) && s.data[s.i]-'0' <= 9; s.i++ {
		d := uint64(s.data[s.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			s.bad = true // past 64 bits: encoding/json's to refuse
			return 0
		}
		v = v*10 + d
	}
	if s.i == start {
		s.bad = true
	}
	return v
}

func (s *scanner) int() int64 {
	neg := s.tryLit("-")
	v := s.uint()
	switch {
	case neg && v <= 1<<63:
		return -int64(v)
	case !neg && v <= math.MaxInt64:
		return int64(v)
	}
	s.bad = true
	return 0
}

// digitRun consumes [0-9]+.
func (s *scanner) digitRun() {
	start := s.i
	for s.i < len(s.data) && s.data[s.i]-'0' <= 9 {
		s.i++
	}
	if s.i == start {
		s.bad = true
	}
}

// float consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and only then
// hands the text to strconv, which alone would also take "+1", "1.", ".5",
// "01", "0x1p-2", "1_0", "Inf" and "NaN" — none of them JSON, all of them
// encoding/json's to refuse.
func (s *scanner) float() float64 {
	start := s.i
	s.tryLit("-")
	if !s.tryLit("0") {
		s.digitRun()
	}
	if s.tryLit(".") {
		s.digitRun()
	}
	if s.tryLit("e") || s.tryLit("E") {
		if !s.tryLit("+") {
			s.tryLit("-")
		}
		s.digitRun()
	}
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.i]), 64)
	if err != nil { // out of range
		s.bad = true
	}
	return f
}
