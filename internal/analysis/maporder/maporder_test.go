package maporder_test

import (
	"testing"

	"southwell/internal/analysis/analysistest"
	"southwell/internal/analysis/maporder"
)

func TestMaporder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), maporder.Analyzer,
		"internal/dmem",
		"internal/parallel",
		"internal/obs",
		"internal/partition", // any other package under internal/: same scope
	)
}
