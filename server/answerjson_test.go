package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/server"
)

// The bodies TestWireGolden pins, as the kernel's canonical seeds.
const (
	seedEstimate = `{"common":12.5,"common_clamped":12,"jaccard":0.3333333333333333,"symmetric_difference":48.25,"alpha":1e-7,"beta":0.015625,"cardinality_u":40,"cardinality_v":32}`
	seedRanking  = `[{"user":7,"estimate":` + seedEstimate + `},{"user":9223372036854775808,"estimate":` +
		`{"common":12.5,"common_clamped":12,"jaccard":0.3333333333333333,"symmetric_difference":48.25,"alpha":1e-7,"beta":0.015625,"cardinality_u":40,"cardinality_v":32,"saturated":true}}]`
	seedRequest = `{"user":1,"candidates":[2,3],"n":2}`
)

// canonicalSeeds are bodies the scan side takes.
var canonicalSeeds = []string{
	seedEstimate + "\n", seedEstimate,
	seedRanking + "\n", "[]\n", "[]",
	seedRequest, seedRequest + "\n",
	`{"user":1,"candidates":null,"n":5,"mode":"ann"}`,
	`{"user":1,"candidates":[],"n":5,"mode":"exact"}`,
	`{"user":18446744073709551615,"candidates":[0],"n":-3,"at":1700000000.25}`,
	`{"user":1,"candidates":[2],"n":1,"at":1e-7,"mode":"exact"}`,
	strings.Replace(seedEstimate, `"common":12.5`, `"common":-0`, 1),
	strings.Replace(seedEstimate, `"common":12.5`, `"common":1E+2`, 1),
	strings.Replace(seedEstimate, `"common":12.5`, `"common":1234567890123456789012345`, 1), // 25 digits: a float takes them
	strings.Replace(seedEstimate, `"cardinality_u":40`, `"cardinality_u":-9223372036854775808`, 1),
}

// nonCanonicalSeeds are bodies the scan side must hand to encoding/json —
// some of them valid JSON for the shape (a foreign encoder's), some not JSON
// at all though strconv alone would have read the number.
var nonCanonicalSeeds = func() []string {
	var seeds []string
	for _, num := range []string{"+1", "1.", ".5", "01", "-", "1e", "1E+", "0x1p-2", "Inf", "NaN", "1_0", "1e999", "-01", "1.e2", " 1"} {
		seeds = append(seeds,
			strings.Replace(seedEstimate, `"common":12.5`, `"common":`+num, 1),
			strings.Replace(seedRequest, `"n":2`, `"n":2,"at":`+num, 1))
	}
	return append(seeds,
		strings.Replace(seedEstimate, `"cardinality_u":40`, `"cardinality_u":3e2`, 1),
		strings.Replace(seedEstimate, `"cardinality_u":40`, `"cardinality_u":40.0`, 1),
		strings.Replace(seedEstimate, `"cardinality_u":40`, `"cardinality_u":9223372036854775808`, 1),
		strings.Replace(seedEstimate, `"cardinality_u":40`, `"cardinality_u":1234567890123456789012345`, 1),
		strings.Replace(seedRequest, `"user":1`, `"user":18446744073709551616`, 1),
		strings.Replace(seedRequest, `"user":1`, `"user":-1`, 1),
		strings.Replace(seedRequest, `[2,3]`, `[2,03]`, 1),
		strings.Replace(seedRequest, `[2,3]`, `[2,3,]`, 1),
		strings.Replace(seedRequest, `[2,3]`, `[2,-3]`, 1),
		strings.Replace(seedEstimate, `"common":12.5,`, `"common":12.5,"common":1,`, 1),                              // duplicated key
		strings.Replace(seedEstimate, `"common":12.5,"common_clamped":12,`, `"common_clamped":12,"common":12.5,`, 1), // reordered
		strings.Replace(seedEstimate, `"jaccard"`, `"Jaccard"`, 1),                                                   // another case
		strings.Replace(seedEstimate, `,"alpha"`, `, "alpha"`, 1),                                                    // whitespace
		strings.Replace(seedEstimate, `"beta":`, `"beta": `, 1),
		strings.TrimSuffix(seedEstimate, "}")+`,"saturated":false}`, // what omitempty never writes
		seedEstimate[:len(seedEstimate)-9],                          // truncated
		seedEstimate+"\n\n", seedEstimate+"x", seedEstimate+" "+seedEstimate,
		seedRanking[:len(seedRanking)-1], seedRanking+"]", "[,]", "[ ]", "null\n", "",
		strings.Replace(seedRanking, `},{"user"`, `}, {"user"`, 1),
		strings.Replace(seedRanking, `},{"user"`, `}{"user"`, 1),
		`{"user":1,"n":2,"candidates":[2,3]}`,       // reordered
		`{"user": 1, "candidates": [2, 3], "n": 2}`, // spaced
		`{"user":1,"n":5,"mode":"ann"}`,             // candidates left out
		`{"user":1,"candidates":[2,3],"n":2,"att":12345}`,
		`{"user":1,"candidates":[2,3],"n":2,"mode":""}`,
		`{"user":1,"candidates":[2,3],"n":2,"mode":"fuzzy"}`,
		`{"user":1,"candidates":[2,3],"n":2,"mode":"<ann>"}`,
		"{\"user\":1,\"candidates\":[2,3],\"n\":2,\"mode\":\"\xff\"}",
		`{"user":1,"candidates":[2,3],"n":2,"mode":"ann","at":5}`, // at after mode
		`{"user":1,"candidates":[2,3],"n":2} {"user":9}`,
		`{"user":1,"candidates":[2,3],"n":9223372036854775808}`,
	)
}()

// stdlibLine is what json.Encoder.Encode writes for v: the reference bytes of
// an answer.
func stdlibLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json refuses %+v: %v", v, err)
	}
	return buf.Bytes()
}

// checkAgainstStdlib holds the kernel to encoding/json on one body, for all
// three shapes: whatever the scan takes, encoding/json (the strict decoder
// for the request) takes too and reads the same value from; and the value
// appended is, byte for byte, the value encoded. It returns how many of the
// three scans took the body.
func checkAgainstStdlib(t testing.TB, data []byte) (taken int) {
	t.Helper()
	if est, ok := server.ScanEstimate(data); ok {
		taken++
		var ref vos.Estimate
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(est, ref) {
			t.Errorf("ScanEstimate(%q) = %+v; encoding/json: %+v, %v", data, est, ref, err)
		}
		if got, ok := server.AppendEstimate(nil, est); !ok || !bytes.Equal(got, stdlibLine(t, est)) {
			t.Errorf("AppendEstimate(%+v) = %q, %v; encoding/json: %q", est, got, ok, stdlibLine(t, est))
		}
	}
	if top, ok := server.ScanTopK(data); ok {
		taken++
		var ref []vos.TopKResult
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(top, ref) {
			t.Errorf("ScanTopK(%q) = %+v; encoding/json: %+v, %v", data, top, ref, err)
		}
		if got, ok := server.AppendTopK(nil, top); !ok || !bytes.Equal(got, stdlibLine(t, top)) {
			t.Errorf("AppendTopK(%+v) = %q, %v; encoding/json: %q", top, got, ok, stdlibLine(t, top))
		}
	}
	if req, ok := server.ScanTopKRequest(data); ok {
		taken++
		var ref server.TopKRequest
		if err := server.DecodeStrictJSON(bytes.NewReader(data), &ref); err != nil || !reflect.DeepEqual(req, ref) {
			t.Errorf("ScanTopKRequest(%q) = %+v; DecodeStrictJSON: %+v, %v", data, req, ref, err)
		}
		want, err := json.Marshal(req)
		if got, ok := server.AppendTopKRequest(nil, req); err != nil || !ok || !bytes.Equal(got, want) {
			t.Errorf("AppendTopKRequest(%+v) = %q, %v; json.Marshal: %q, %v", req, got, ok, want, err)
		}
	}
	return taken
}

// FuzzAnswerJSON: the scan side never takes what encoding/json would refuse
// or read differently, and the append side writes encoding/json's bytes for
// every value the scan can produce.
func FuzzAnswerJSON(f *testing.F) {
	for _, s := range canonicalSeeds {
		f.Add([]byte(s))
	}
	for _, s := range nonCanonicalSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstStdlib(t, data) })
}

// TestAnswerJSONSeeds: every canonical seed is taken by exactly one scan and
// every non-canonical one by none — the number grammar is JSON's, not
// strconv's, and anything reordered, spaced, misspelt, cut short or followed
// by more is encoding/json's to judge.
func TestAnswerJSONSeeds(t *testing.T) {
	for _, s := range canonicalSeeds {
		if n := checkAgainstStdlib(t, []byte(s)); n != 1 {
			t.Errorf("canonical %q: taken by %d scans, want 1", s, n)
		}
	}
	for _, s := range nonCanonicalSeeds {
		if n := checkAgainstStdlib(t, []byte(s)); n != 0 {
			t.Errorf("non-canonical %q: taken by %d scans, want 0", s, n)
		}
	}
}

// randomEstimate draws an estimate whose floats cover encoding/json's three
// formats: zero, 'e' below 1e-6 and from 1e21 (one- and two-digit exponents),
// 'f' between, either sign, and arbitrary finite bit patterns.
func randomEstimate(rng *rand.Rand) vos.Estimate {
	float := func() float64 {
		var f float64
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			f = rng.Float64() * 1e-6 // 'e', e-7 and below
		case 2:
			f = rng.Float64() * math.Pow(10, -float64(rng.Intn(300))) // e-9 | e-10 | e-100
		case 3:
			f = (1 + rng.Float64()) * math.Pow(10, float64(21+rng.Intn(280))) // 'e', positive exponent
		case 4:
			f = float64(rng.Int63n(1 << 40)) // integral
		case 5:
			for f = math.Float64frombits(rng.Uint64()); math.IsInf(f, 0) || math.IsNaN(f); {
				f = math.Float64frombits(rng.Uint64())
			}
			return f
		default:
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(22))) // 'f', up to the 1e21 edge
		}
		if rng.Intn(4) == 0 {
			f = -f
		}
		return f
	}
	integer := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Uint64()) // any sign, any magnitude
		case 1:
			return 0
		}
		return rng.Int63n(1 << 20)
	}
	return vos.Estimate{
		Common: float(), CommonClamped: float(), Jaccard: float(), SymmetricDifference: float(),
		Alpha: float(), Beta: float(), CardinalityU: integer(), CardinalityV: integer(),
		Saturated: rng.Intn(3) == 0,
	}
}

func randomUser(rng *rand.Rand) vos.User {
	if rng.Intn(2) == 0 {
		return vos.User(rng.Intn(1 << 16))
	}
	return vos.User(rng.Uint64() >> uint(rng.Intn(2))) // up to 2^63-1, and past it
}

// TestAnswerJSONDifferential: over 20,000 seeded random rankings (0–12
// results, [] for the empty one) and as many lone estimates and requests, the
// append side writes encoding/json's bytes and the scan side reads back the
// value, bit for bit.
func TestAnswerJSONDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for i := 0; i < rounds && !t.Failed(); i++ {
		top := make([]vos.TopKResult, rng.Intn(13))
		for j := range top {
			top[j] = vos.TopKResult{User: randomUser(rng), Estimate: randomEstimate(rng)}
		}
		line, ok := server.AppendTopK(nil, top)
		if want := stdlibLine(t, top); !ok || !bytes.Equal(line, want) {
			t.Fatalf("AppendTopK = %q, %v\nencoding/json: %q", line, ok, want)
		}
		back, ok := server.ScanTopK(line)
		if again, _ := server.AppendTopK(nil, back); !ok || !reflect.DeepEqual(back, top) || !bytes.Equal(again, line) {
			t.Fatalf("ScanTopK(%q) = %+v, %v; want %+v", line, back, ok, top)
		}

		est := randomEstimate(rng)
		line, ok = server.AppendEstimate(nil, est)
		if want := stdlibLine(t, est); !ok || !bytes.Equal(line, want) {
			t.Fatalf("AppendEstimate = %q, %v\nencoding/json: %q", line, ok, want)
		}
		estBack, ok := server.ScanEstimate(line)
		if again, _ := server.AppendEstimate(nil, estBack); !ok || estBack != est || !bytes.Equal(again, line) {
			t.Fatalf("ScanEstimate(%q) = %+v, %v; want %+v", line, estBack, ok, est)
		}

		req := server.TopKRequest{User: randomUser(rng), N: int(rng.Int63()>>uint(rng.Intn(64))) - 5,
			Mode: []string{"", "", "exact", "ann"}[rng.Intn(4)]}
		switch rng.Intn(4) {
		case 0: // nil: travels as null
		case 1:
			req.Candidates = []vos.User{}
		default:
			req.Candidates = make([]vos.User, 1+rng.Intn(40))
			for j := range req.Candidates {
				req.Candidates[j] = randomUser(rng)
			}
		}
		if rng.Intn(3) == 0 {
			req.At = randomEstimate(rng).Common
		}
		body, ok := server.AppendTopKRequest(nil, req)
		if want, err := json.Marshal(req); err != nil || !ok || !bytes.Equal(body, want) {
			t.Fatalf("AppendTopKRequest = %q, %v\njson.Marshal: %q, %v", body, ok, want, err)
		}
		reqBack, ok := server.ScanTopKRequest(body)
		if again, _ := server.AppendTopKRequest(nil, reqBack); !ok || !reflect.DeepEqual(reqBack, req) || !bytes.Equal(again, body) {
			t.Fatalf("ScanTopKRequest(%q) = %+v, %v; want %+v", body, reqBack, ok, req)
		}
	}
}

// TestAnswerJSONAppendDeclines: what the append side leaves to encoding/json
// — non-finite floats, which encoding/json refuses in its own words, and any
// mode string but the API's two, whose escaping is encoding/json's — and what
// it must not: a nil ranking is null, a nil candidates list is null.
func TestAnswerJSONAppendDeclines(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := server.AppendEstimate(nil, vos.Estimate{Alpha: f}); ok {
			t.Errorf("AppendEstimate took alpha = %v", f)
		}
		if _, ok := server.AppendTopK(nil, []vos.TopKResult{{}, {Estimate: vos.Estimate{Jaccard: f}}}); ok {
			t.Errorf("AppendTopK took jaccard = %v", f)
		}
		if _, ok := server.AppendTopKRequest(nil, server.TopKRequest{At: f}); ok {
			t.Errorf("AppendTopKRequest took at = %v", f)
		}
	}
	for _, mode := range []string{"fuzzy", "<ann>", "a\"b", "\xff", "Exact", "ann "} {
		if _, ok := server.AppendTopKRequest(nil, server.TopKRequest{Mode: mode}); ok {
			t.Errorf("AppendTopKRequest took mode %q", mode)
		}
	}
	if got, ok := server.AppendTopK(nil, nil); !ok || string(got) != "null\n" {
		t.Errorf("AppendTopK(nil) = %q, %v; encoding/json writes null", got, ok)
	}
	if got, ok := server.AppendTopKRequest([]byte("x"), server.TopKRequest{}); !ok || string(got) != `x{"user":0,"candidates":null,"n":0}` {
		t.Errorf("AppendTopKRequest(zero) = %q, %v", got, ok)
	}
}

// benchRanking is a top 10 as the engine answers it: estimates with the long
// fractions real ŝ and Ĵ have.
func benchRanking() []vos.TopKResult {
	rng := rand.New(rand.NewSource(1))
	top := make([]vos.TopKResult, 10)
	for i := range top {
		top[i] = vos.TopKResult{User: vos.User(1000 + rng.Intn(9000)), Estimate: vos.Estimate{
			Common: rng.Float64() * 40, CommonClamped: rng.Float64() * 40, Jaccard: rng.Float64(),
			SymmetricDifference: rng.Float64() * 90, Alpha: rng.Float64(), Beta: rng.Float64() / 8,
			CardinalityU: 60, CardinalityV: int64(20 + rng.Intn(80)),
		}}
	}
	return top
}

var (
	sinkBytes    []byte
	sinkEstimate vos.Estimate
	sinkTop      []vos.TopKResult
	sinkRequest  server.TopKRequest
)

// BenchmarkAnswerJSON times the kernel against the encoding/json call it
// stands in front of, per shape and direction: the pair estimate, a top 10,
// and a top-K request of 16 and of 1000 candidates.
func BenchmarkAnswerJSON(b *testing.B) {
	top := benchRanking()
	est := top[0].Estimate
	buf := make([]byte, 0, 8<<10)
	var enc bytes.Buffer
	run := func(name string, size int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	stdEncode := func(v any) func() {
		return func() {
			enc.Reset()
			_ = json.NewEncoder(&enc).Encode(v)
		}
	}
	estLine, topLine := stdlibLine(b, est), stdlibLine(b, top)
	run("append/estimate/kernel", len(estLine), func() { sinkBytes, _ = server.AppendEstimate(buf[:0], est) })
	run("append/estimate/stdlib", len(estLine), stdEncode(est))
	run("append/top10/kernel", len(topLine), func() { sinkBytes, _ = server.AppendTopK(buf[:0], top) })
	run("append/top10/stdlib", len(topLine), stdEncode(top))
	run("scan/estimate/kernel", len(estLine), func() { sinkEstimate, _ = server.ScanEstimate(estLine) })
	run("scan/estimate/stdlib", len(estLine), func() { _ = json.Unmarshal(estLine, &sinkEstimate) })
	run("scan/top10/kernel", len(topLine), func() { sinkTop, _ = server.ScanTopK(topLine) })
	run("scan/top10/stdlib", len(topLine), func() {
		var out []vos.TopKResult
		_ = json.Unmarshal(topLine, &out)
		sinkTop = out
	})
	for _, n := range []int{16, 1000} {
		req := server.TopKRequest{User: 1, N: 10, Candidates: make([]vos.User, n)}
		for i := range req.Candidates {
			req.Candidates[i] = vos.User(i + 2)
		}
		body, _ := json.Marshal(req)
		shape := fmt.Sprintf("request%d", n)
		run("append/"+shape+"/kernel", len(body), func() { sinkBytes, _ = server.AppendTopKRequest(buf[:0], req) })
		run("append/"+shape+"/stdlib", len(body), func() { sinkBytes, _ = json.Marshal(req) })
		run("scan/"+shape+"/kernel", len(body), func() { sinkRequest, _ = server.ScanTopKRequest(body) })
		run("scan/"+shape+"/stdlib", len(body), func() {
			var out server.TopKRequest
			_ = server.DecodeStrictJSON(bytes.NewReader(body), &out)
			sinkRequest = out
		})
	}
}

// nanService answers with what encoding/json cannot encode.
type nanService struct{ goldenService }

func (nanService) Similarity(context.Context, vos.User, vos.User) (vos.Estimate, error) {
	return vos.Estimate{Jaccard: math.NaN()}, nil
}
func (nanService) TopK(context.Context, vos.User, []vos.User, int) ([]vos.TopKResult, error) {
	return []vos.TopKResult{{User: 7, Estimate: vos.Estimate{Alpha: math.Inf(1)}}}, nil
}

// TestAnswerHandlersEitherPath: the two query handlers answer a body the
// kernel takes and a body it leaves to encoding/json alike, and the second
// kind exactly as before the kernel stood in front — the statuses, codes and
// messages below are the parent's. The kernel column is checked against the
// scan itself, and counted, so the table cannot drift into exercising one
// path only.
func TestAnswerHandlersEitherPath(t *testing.T) {
	ranking := []vos.TopKResult{{User: 7, Estimate: goldenEstimate}}
	const rankingJSON = `[{"user":7,"estimate":` + seedEstimate + `}]` + "\n"
	srv := server.New(goldenReporter{goldenService{top: ranking}}, server.Options{})
	const needCandidates = "need n > 0 and a non-empty candidates list"
	taken, declined := 0, 0
	for _, tc := range []struct {
		name, body string
		kernel     bool // the scan takes the body
		status     int
		want       string // the body of a 200, the message of an error
	}{
		{"canonical", `{"user":1,"candidates":[2,3],"n":2}`, true, 200, rankingJSON},
		{"canonical, exact", `{"user":1,"candidates":[2,3],"n":2,"mode":"exact"}`, true, 200, rankingJSON},
		{"candidates before user", `{"candidates":[2,3],"user":1,"n":2}`, false, 200, rankingJSON},
		{"spaces", `{ "user": 1, "candidates": [2, 3], "n": 2 }`, false, 200, rankingJSON},
		{"indented", "{\n  \"user\": 1,\n  \"candidates\": [\n    2\n  ],\n  \"n\": 2\n}\n", false, 200, rankingJSON},
		{"key in another case", `{"User":1,"candidates":[2,3],"N":2}`, false, 200, rankingJSON},
		{"escaped mode", `{"user":1,"candidates":[2,3],"n":2,"mode":"\u0065xact"}`, false, 200, rankingJSON},
		{"exponent in n", `{"user":1,"candidates":[2,3],"n":2e0}`, false, 400,
			"bad JSON body: json: cannot unmarshal number 2e0 into Go struct field TopKRequest.n of type int"},
		{"unknown field", `{"user":1,"candidates":[2,3],"n":1,"att":12345}`, false, 400,
			`bad JSON body: json: unknown field "att"`},
		{"trailing data", `{"user":1,"candidates":[2,3],"n":1} {"user":9}`, false, 400,
			"bad JSON body: trailing data after JSON value"},
		{"strconv's number, not JSON's", `{"user":1,"candidates":[2,3],"n":+2}`, false, 400,
			"bad JSON body: invalid character '+' looking for beginning of value"},
		{"leading zero", `{"user":1,"candidates":[2,03],"n":2}`, false, 400,
			"bad JSON body: invalid character '3' after array element"},
		{"user past 64 bits", `{"user":18446744073709551616,"candidates":[2],"n":2}`, false, 400,
			"bad JSON body: json: cannot unmarshal number 18446744073709551616 into Go struct field TopKRequest.user of type stream.User"},
		{"empty body", ``, false, 400, "bad JSON body: EOF"},
		{"ann with candidates", `{"user":1,"candidates":[2,3],"n":5,"mode":"ann"}`, true, 400,
			`mode "ann" is candidates-free; omit the candidates list`},
		{"ann with candidates, mode first", `{"user":1,"n":5,"mode":"ann","candidates":[2,3]}`, false, 400,
			`mode "ann" is candidates-free; omit the candidates list`},
		{"ann unsupported", `{"user":1,"candidates":null,"n":5,"mode":"ann"}`, true, 501,
			"backing service does not support approximate top-K"},
		{"null candidates", `{"user":1,"candidates":null,"n":2}`, true, 400, needCandidates},
		{"empty candidates", `{"user":1,"candidates":[],"n":2}`, true, 400, needCandidates},
		{"no candidates key", `{"user":1,"n":2}`, false, 400, needCandidates},
		{"unknown mode", `{"user":1,"candidates":[2],"n":2,"mode":"fuzzy"}`, false, 400,
			`mode must be "exact" or "ann", got "fuzzy"`},
		{"at without a window", `{"user":1,"candidates":[2],"n":2,"at":1700000000.5}`, true, 400,
			"at requires a sliding-window service; this service retains the whole stream"},
	} {
		if _, ok := server.ScanTopKRequest([]byte(tc.body)); ok != tc.kernel {
			t.Errorf("%s: the scan took the body: %v, want %v", tc.name, ok, tc.kernel)
		}
		if tc.kernel {
			taken++
		} else {
			declined++
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, server.RouteTopK, strings.NewReader(tc.body)))
		got := rec.Body.String()
		if rec.Code != http.StatusOK {
			var env server.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Errorf("%s: %d with a non-envelope body %q", tc.name, rec.Code, got)
			}
			got = env.Error.Message
		}
		if rec.Code != tc.status || got != tc.want {
			t.Errorf("%s: answered %d %q, want %d %q", tc.name, rec.Code, got, tc.status, tc.want)
		}
	}
	if taken != 7 || declined != 15 {
		t.Errorf("%d bodies went through the kernel and %d through encoding/json, want 7 and 15", taken, declined)
	}

	// The append side declining: JSON has no NaN, encoding/json refuses the
	// same value, so there is no body to fall back to — the client is told
	// in the typed envelope, not handed a 200 with zero bytes.
	nan := server.New(nanService{}, server.Options{})
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, server.RouteSimilarity+"?u=1&v=2", nil),
		httptest.NewRequest(http.MethodPost, server.RouteTopK, strings.NewReader(seedRequest)),
	} {
		rec := httptest.NewRecorder()
		nan.ServeHTTP(rec, req)
		var env server.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Error.Code != server.CodeInternal {
			t.Errorf("%s of a non-finite estimate: %d %q, want 500/%s", req.URL.Path, rec.Code, rec.Body, server.CodeInternal)
		}
	}
}

// TestAnswerBytesUnderConcurrentReaders: the handlers append their answers in
// pooled bytes, so readers in flight together must each get their own answer
// — every ranking and estimate is compared with the engine's for that reader's
// key, under the race detector in CI.
func TestAnswerBytesUnderConcurrentReaders(t *testing.T) {
	eng, cl, _ := newWired(t, server.Options{}, client.Options{Linger: -1})
	ctx := context.Background()
	if err := cl.Ingest(ctx, feasibleStream(6000, 40, 0.1, 11)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	eng.Flush() // the service flushes before a read; the reference reads below must see the same state
	candidates := make([]vos.User, 40)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(u vos.User) {
			defer wg.Done()
			// Rankings of different lengths, so that a body read after another
			// request reused its bytes could not pass for the right one.
			n := 3 + 4*int(u)
			wantTop, wantEst := eng.TopK(u, candidates, n), eng.Query(u, u+1)
			for i := 0; i < 100; i++ {
				top, err := cl.TopK(ctx, u, candidates, n)
				if err != nil || !reflect.DeepEqual(top, wantTop) {
					t.Errorf("reader %d: TopK = %+v, %v; the engine says %+v", u, top, err, wantTop)
					return
				}
				est, err := cl.Similarity(ctx, u, u+1)
				if err != nil || est != wantEst {
					t.Errorf("reader %d: Similarity = %+v, %v; the engine says %+v", u, est, err, wantEst)
					return
				}
			}
		}(vos.User(r))
	}
	wg.Wait()
}
