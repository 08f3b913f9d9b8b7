package server

// Keeps docs/openapi.yaml honest: every route and every envelope code
// registered in this package must appear in the spec, and the spec must
// hold the structural anchors the wire contract promises. The routes and
// codes are harvested from the SOURCE (string literals in server.go and
// types.go) and the field names from the json tags of the types the
// handlers encode, not from hand-maintained lists, so adding an endpoint,
// an error code or a field without documenting it fails this test.

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/metrics"
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
		HeaderSketchBefore,   // a POST /v1/edges answer's span opens here
	} {
		if !strings.Contains(spec, anchor) {
			t.Errorf("spec is missing required anchor %q", anchor)
		}
	}
}

// schemaTypes pairs every components/schemas entry that describes a JSON
// body with the Go type the handlers encode or decode for it.
var schemaTypes = map[string]any{
	"Edge":                      EdgeJSON{},
	"IngestResponse":            IngestResponse{},
	"Estimate":                  vos.Estimate{},
	"TopKRequest":               TopKRequest{},
	"TopKResult":                vos.TopKResult{},
	"CardinalityResponse":       CardinalityResponse{},
	"Stats":                     StatsResponse{},
	"ANNStats":                  vos.ANNStats{},
	"SnapshotStats":             vos.SnapshotStats{},
	"UDPStats":                  metrics.UDPStats{},
	"CheckpointResponse":        CheckpointResponse{},
	"ImportResponse":            ImportResponse{},
	"RingResponse":              RingResponse{},
	"HandoffRequest":            HandoffRequest{},
	"HandoffResponse":           HandoffResponse{},
	"ClusterNodeCheckpoint":     ClusterNodeCheckpointJSON{},
	"ClusterCheckpointResponse": ClusterCheckpointResponse{},
	"Health":                    HealthResponse{},
	"Metrics":                   MetricsResponse{},
	"ErrorEnvelope":             ErrorEnvelope{},
}

// jsonFields lists the wire names t's json tags declare: embedded structs
// are flattened as encoding/json flattens them, and a struct-valued field
// without a schema of its own contributes its fields too — the spec
// describes it inline.
func jsonFields(t reflect.Type, own map[reflect.Type]bool) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		elem := f.Type
		for k := elem.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Map; k = elem.Kind() {
			elem = elem.Elem()
		}
		if !f.Anonymous {
			out = append(out, name)
		}
		if elem.Kind() == reflect.Struct && !own[elem] {
			out = append(out, jsonFields(elem, own)...)
		}
	}
	return out
}

// TestOpenAPICoversEveryField: every field a /v1/ body carries is a property
// of its schema in the spec. The types are the ones the handlers encode, so
// a field added to vos.Estimate or a stats struct is on the wire at once and
// fails here until the spec names it.
func TestOpenAPICoversEveryField(t *testing.T) {
	spec := readRepoFile(t, "../docs/openapi.yaml")
	_, schemas, ok := strings.Cut(spec, "\n  schemas:\n")
	if !ok {
		t.Fatal("spec has no components/schemas section")
	}
	own := map[reflect.Type]bool{}
	missing := map[string]bool{}
	for name, v := range schemaTypes {
		own[reflect.TypeOf(v)] = true
		missing[name] = true
	}
	blocks := regexp.MustCompile(`(?m)^    [A-Za-z]+:$`).FindAllStringIndex(schemas, -1)
	for i, loc := range blocks {
		name := strings.TrimSuffix(strings.TrimSpace(schemas[loc[0]:loc[1]]), ":")
		block := schemas[loc[1]:]
		if i+1 < len(blocks) {
			block = schemas[loc[1]:blocks[i+1][0]]
		}
		v, ok := schemaTypes[name]
		if !ok {
			t.Errorf("schema %s in docs/openapi.yaml has no Go type in schemaTypes", name)
			continue
		}
		for _, field := range jsonFields(reflect.TypeOf(v), own) {
			if field == "" {
				t.Errorf("a field of %T has no json tag", v)
			} else if !regexp.MustCompile(`(?m)^ +` + field + `:$`).MatchString(block) {
				t.Errorf("%T carries %q but schema %s in docs/openapi.yaml has no such property", v, field, name)
			}
		}
		delete(missing, name)
	}
	for name := range missing {
		t.Errorf("docs/openapi.yaml has no schema %s", name)
	}
}
