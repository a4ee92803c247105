package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"accpar"
)

func lenetPlan(t *testing.T) *accpar.Plan {
	t.Helper()
	net, err := accpar.BuildModel("lenet", 32)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := accpar.TPUFleet(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := accpar.PartitionWithOptions(net, arr, accpar.StrategyAccPar.Options(), 8)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPlanResponseSetsContentLength asserts a plan answer is the library
// document, sent with its length.
func TestPlanResponseSetsContentLength(t *testing.T) {
	plan := lenetPlan(t)
	var want bytes.Buffer
	if err := plan.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	writePlan(w, plan)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("code %d, body %.120q; want 200 and the WriteJSON document", w.Code, w.Body)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
		t.Errorf("Content-Length = %q, want %d", got, want.Len())
	}
}

// TestPlanEncodeErrorAnswers500 asserts a plan that cannot be encoded
// (a non-finite value) answers 500 with the encode error — on the plain
// and on the wrapped explain/trace response — instead of a 200 with an
// empty body, and counts the failure.
func TestPlanEncodeErrorAnswers500(t *testing.T) {
	plan := lenetPlan(t)
	plan.Root.Alpha = math.NaN()
	srv, _ := newTestMux(t)
	before := obsEncodeErrors.Value()

	w := httptest.NewRecorder()
	writePlan(w, plan)
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "unsupported value: NaN") {
		t.Errorf("plain: code %d, body %q; want 500 naming the NaN", w.Code, w.Body)
	}

	w = httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/plan", nil)
	srv.writeWrappedPlan(w, r, &planRequest{Trace: true}, plan, nil)
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "unsupported value: NaN") {
		t.Errorf("wrapped: code %d, body %q; want 500 naming the NaN", w.Code, w.Body)
	}
	if d := obsEncodeErrors.Value() - before; d != 2 {
		t.Errorf("serve.encode_errors rose by %d, want 2", d)
	}
}
