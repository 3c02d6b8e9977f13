package closecheck_test

import (
	"testing"

	"bpred/internal/analysis/analysistest"
	"bpred/internal/analysis/closecheck"
)

func TestCloseCheck(t *testing.T) {
	analysistest.Run(t, closecheck.Analyzer, "trace", "res")
}
