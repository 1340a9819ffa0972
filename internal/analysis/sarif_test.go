package analysis

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSARIFEncoding pins the wire shape consumers rely on: version/schema,
// one rule per registered pass, and results whose ruleIndex points at the
// right rule with a 1-based physical location.
func TestSARIFEncoding(t *testing.T) {
	findings := []Diagnostic{
		{Pass: "hotblock", File: "internal/core/server.go", Line: 42, Col: 7,
			Message: "c.mu is held across unsealKey (hashing)"},
		{Pass: "zeroize", File: "internal/portal/portal.go", Line: 9, Col: 2,
			Message: "secret bytes are not wiped"},
		{Pass: "zeroize", File: "internal/portal/portal.go", Line: 0, Col: 0,
			Message: "position-less finding"},
	}
	out, err := SARIF(findings, Passes)
	if err != nil {
		t.Fatalf("SARIF: %v", err)
	}

	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "myproxy-vet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}

	// Every registered pass (plus the reserved pragma pseudo-pass) is a rule,
	// even though only two fired.
	ruleIdx := make(map[string]int)
	for i, r := range run.Tool.Driver.Rules {
		ruleIdx[r.ID] = i
	}
	for _, p := range Passes {
		if _, ok := ruleIdx[p.Name]; !ok {
			t.Errorf("pass %q missing from rules", p.Name)
		}
	}
	if _, ok := ruleIdx["pragma"]; !ok {
		t.Error("reserved pragma pass missing from rules")
	}

	if len(run.Results) != len(findings) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(findings))
	}
	first := run.Results[0]
	if first.RuleID != "hotblock" || first.RuleIndex != ruleIdx["hotblock"] {
		t.Errorf("result 0 ruleId/ruleIndex = %q/%d, want hotblock/%d",
			first.RuleID, first.RuleIndex, ruleIdx["hotblock"])
	}
	if first.Level != "warning" || first.Message.Text != findings[0].Message {
		t.Errorf("result 0 level/message = %q/%q", first.Level, first.Message.Text)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/server.go" ||
		loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("result 0 location = %+v", loc)
	}

	// SARIF regions are 1-based: a position-less finding must clamp, not
	// emit an invalid 0.
	clamped := run.Results[2].Locations[0].PhysicalLocation.Region
	if clamped.StartLine != 1 || clamped.StartColumn != 1 {
		t.Errorf("position-less region = %+v, want 1:1", clamped)
	}
}
