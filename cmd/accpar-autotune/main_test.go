package main

import "testing"

func TestRunAutotune(t *testing.T) {
	if err := run("lenet", 2, 2, 16, 32, "", ""); err != nil {
		t.Errorf("autotune: %v", err)
	}
	if err := run("nope", 2, 2, 16, 32, "", ""); err == nil {
		t.Error("unknown model must error")
	}
	if err := run("lenet", 2, 2, 32, 16, "", ""); err == nil {
		t.Error("inverted range must error")
	}
}
