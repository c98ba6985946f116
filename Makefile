# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check lint analyze bench doc examples clean artifacts

all: build

build:
	dune build @all

test:
	dune runtest

# Single entry point for CI and builders: full build + full test suite
check:
	dune build @all && dune runtest

# Source-level static analysis over the parsed lib/ bin/ test/ bench/
# bench/suite/ examples/ modules (hygiene rules, release paths,
# check-then-act, blocking under lock, dead exported API and test-only
# optional parameters, resource lifecycles); exits 1 on error findings.
# The analyzer is its own executable: msoc_plan links no compiler-libs.
analyze:
	dune exec bin/msoc_analyze.exe

# Strict gate: warnings-as-errors build, full tests, the independent
# plan verifier over the checked-in benchmark, and the source analyzer
# (each nonzero exit on findings)
lint:
	dune build @all
	dune runtest
	dune exec bin/msoc_plan.exe -- check --soc data/p93791s.soc
	dune exec bin/msoc_analyze.exe

# Regenerate every paper table/figure + ablations (writes bench_output.txt)
bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/wrapper_sim.exe
	dune exec examples/datasheet.exe
	dune exec examples/audio_codec.exe
	dune exec examples/virtual_ate.exe
	dune exec examples/baseband_phone.exe
	dune exec examples/width_sweep.exe
	dune exec examples/hierarchy_extest.exe

# Re-emit the checked-in synthetic benchmark (deterministic)
artifacts:
	dune exec bin/msoc_plan.exe -- generate --bottleneck data/p93791s.soc

clean:
	dune clean
