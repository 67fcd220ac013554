package lint

import "testing"

func TestNilGuardHomeTracer(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/trace", NilGuard)
}

func TestNilGuardHomeSpan(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/span", NilGuard)
}

func TestNilGuardConsumer(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/stddisk", NilGuard)
}

func TestNilGuardHomeTelemetry(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/telemetry", NilGuard)
}

func TestNilGuardHomeTimeline(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/timeline", NilGuard)
}

func TestNilGuardCostlyArgs(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/nilcost", NilGuard)
}
