package server

// Keeps docs/openapi.yaml honest: every route and every envelope code
// registered in this package must appear in the spec, and the spec must
// hold the structural anchors the wire contract promises. The routes and
// codes are harvested from the SOURCE (string literals in server.go and
// types.go), not from hand-maintained lists, so adding an endpoint or an
// error code without documenting it fails this test — the same contract
// CI's grep step enforces outside the test binary.

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func readRepoFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}

// sourceRoutes extracts every "/v1/..." string literal from server.go —
// the single place routes are registered.
func sourceRoutes(t *testing.T) []string {
	t.Helper()
	src := readRepoFile(t, "server.go")
	re := regexp.MustCompile(`"(/v1/[a-z]+(?:/[a-z]+)*)"`)
	seen := map[string]bool{}
	var out []string
	for _, m := range re.FindAllStringSubmatch(src, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			out = append(out, m[1])
		}
	}
	if len(out) < 14 {
		t.Fatalf("found only %d routes in server.go — extraction broken?", len(out))
	}
	return out
}

// sourceErrorCodes extracts every `Code* = "..."` constant from types.go.
func sourceErrorCodes(t *testing.T) []string {
	t.Helper()
	src := readRepoFile(t, "types.go")
	re := regexp.MustCompile(`Code[A-Za-z]+\s*=\s*"([a-z_]+)"`)
	var out []string
	for _, m := range re.FindAllStringSubmatch(src, -1) {
		out = append(out, m[1])
	}
	if len(out) < 11 {
		t.Fatalf("found only %d error codes in types.go — extraction broken?", len(out))
	}
	return out
}

func TestOpenAPICoversEveryRoute(t *testing.T) {
	spec := readRepoFile(t, "../docs/openapi.yaml")
	for _, route := range sourceRoutes(t) {
		if !strings.Contains(spec, "\n  "+route+":") {
			t.Errorf("route %s registered in server.go but missing from docs/openapi.yaml paths", route)
		}
	}
}

func TestOpenAPICoversEveryErrorCode(t *testing.T) {
	spec := readRepoFile(t, "../docs/openapi.yaml")
	for _, code := range sourceErrorCodes(t) {
		if !strings.Contains(spec, "- "+code) {
			t.Errorf("error code %q defined in types.go but missing from the docs/openapi.yaml envelope enum", code)
		}
	}
}

func TestOpenAPIStructure(t *testing.T) {
	spec := readRepoFile(t, "../docs/openapi.yaml")
	if !strings.HasPrefix(spec, "openapi: 3.1") {
		t.Error("spec must declare OpenAPI 3.1")
	}
	if strings.Contains(spec, "\t") {
		t.Error("YAML must not contain tab characters")
	}
	// Anchors of the wire contract the spec exists to document.
	for _, anchor := range []string{
		"paths:",
		"components:",
		"VOSSTRM1",                         // the binary ingest codec
		"Retry-After",                      // backpressure contract
		HeaderBatchTs,                      // batch event-time header
		ContentTypeBinary,                  // binary ingest content type
		ContentTypeNDJSON,                  // NDJSON ingest content type
		`"411"`, `"413"`, `"429"`, `"499"`, // backpressure + cancel statuses
		"draining",           // drain-vs-unavailable semantics
		"enum: [exact, ann]", // the top-K candidate-generation mode
		`"501"`,              // ann/checkpoint capability degradation
		HeaderPartial,        // degraded scatter-gather marker on /v1/topk
		"name: since",        // the delta export's cursor parameter
		HeaderSketchCursor,   // ... and the cursor it is answered with
		HeaderSketchFallback, // ... or the reason it was answered in full
		"gathered_bytes",     // the gateway's share of the snapshot object
		"band_rekeys",        // the ann object: how the index followed the stream
		"journal_fallbacks",  // ... and when it could not
		"spilled_users",
	} {
		if !strings.Contains(spec, anchor) {
			t.Errorf("spec is missing required anchor %q", anchor)
		}
	}
}
