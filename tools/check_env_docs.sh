#!/usr/bin/env bash
# Drift guard for the environment-variable catalogue (DESIGN.md §10).
#
# Every MECSC_* environment variable *read* anywhere in src/, bench/ or
# examples/ must be documented in both:
#   * common::env_catalog() (src/common/env_catalog.cpp), and
#   * README.md's "Environment variables" table;
# and conversely every catalogue entry must correspond to a variable the
# code actually reads. MECSC_-prefixed C++ macros (MECSC_CHECK,
# MECSC_SPAN, ...) and the tests-only MECSC_TEST_ENV scratch variable
# are excluded.
#
# Hermetic: pure grep over the working tree; no network, no build.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-env-var identifiers that share the MECSC_ prefix: instrumentation
# and assertion macros, include guards (filtered by _H suffix too), and
# the compile-time SIMD macros (MECSC_FORCE_SCALAR is a CMake option;
# MECSC_SIMD_AVX2 / MECSC_AVX2 are #define dispatch switches — the
# digit-less token regex below truncates them to *_AVX). The assertion
# macros are anchored ($) so they cannot swallow a real env var sharing
# their prefix (a MECSC_CHECKPOINT_DIR, say, would still be checked).
EXCLUDE='MECSC_CHECK$|MECSC_CHECK_MSG$|MECSC_COUNT|MECSC_GAUGE_SET|MECSC_HISTOGRAM|MECSC_SPAN|MECSC_OBS_CONCAT|MECSC_TEST_ENV|MECSC_FORCE_SCALAR|MECSC_SIMD_AVX$|MECSC_AVX$|MECSC_[A-Z_]*_H\b'

# Every MECSC_[A-Z_]* token in the shipped C++ sources (tests excluded:
# they may poke internals; CMake files use MECSC_* for list variables),
# minus macros/guards.
used=$(grep -rhoE --include='*.h' --include='*.cpp' 'MECSC_[A-Z_]+' \
  src bench examples \
  | grep -vE "$EXCLUDE" | sort -u)

# The catalogue's declared names.
catalog=$(grep -oE '"MECSC_[A-Z_]+"' src/common/env_catalog.cpp \
  | tr -d '"' | sort -u)

# README table rows: | `MECSC_FOO` | ...
readme=$(grep -oE '^\| `MECSC_[A-Z_]+`' README.md \
  | grep -oE 'MECSC_[A-Z_]+' | sort -u)

status=0

missing_catalog=$(comm -23 <(echo "$used") <(echo "$catalog"))
if [ -n "$missing_catalog" ]; then
  echo "read in src/bench/examples but missing from common::env_catalog():"
  echo "$missing_catalog" | sed 's/^/  /'
  status=1
fi

missing_readme=$(comm -23 <(echo "$used") <(echo "$readme"))
if [ -n "$missing_readme" ]; then
  echo "read in src/bench/examples but missing from README.md's table:"
  echo "$missing_readme" | sed 's/^/  /'
  status=1
fi

stale_catalog=$(comm -13 <(echo "$used") <(echo "$catalog"))
if [ -n "$stale_catalog" ]; then
  echo "in common::env_catalog() but never read by any code:"
  echo "$stale_catalog" | sed 's/^/  /'
  status=1
fi

stale_readme=$(comm -13 <(echo "$used") <(echo "$readme"))
if [ -n "$stale_readme" ]; then
  echo "in README.md's table but never read by any code:"
  echo "$stale_readme" | sed 's/^/  /'
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "env docs in sync: $(echo "$used" | wc -l) variable(s) documented in catalogue + README"
fi
exit "$status"
