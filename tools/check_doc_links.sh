#!/bin/sh
# Fails when a docs/*.md (or README.md) references a repository path
# that does not exist. Understands `a/b.{h,cc}` brace groups and `*`
# globs. Run from the repository root; CI runs it on every push.
set -u

fail=0
for doc in docs/*.md README.md src/data/README.md; do
  [ -f "$doc" ] || continue
  # Candidate references: tokens rooted at a known top-level directory.
  # The boundary group rejects larger paths like /usr/src/googletest; the
  # sed strips that leading boundary character back off.
  refs=$(grep -oE '(^|[^/A-Za-z0-9_.-])(src|paper|tools|bench|tests|examples|docs)/[A-Za-z0-9_.{},*/-]*[A-Za-z0-9_*}]' "$doc" \
         | sed -E 's#^[^A-Za-z]+##' | sort -u)
  for ref in $refs; do
    case "$ref" in
      *'{'*)
        # Expand one brace group: src/core/shard.{h,cc} -> .h .cc
        base=${ref%%\{*}
        rest=${ref#*\{}
        exts=${rest%%\}*}
        tail=${rest#*\}}
        for ext in $(printf '%s' "$exts" | tr ',' ' '); do
          path="${base}${ext}${tail}"
          if [ ! -e "$path" ]; then
            echo "$doc: missing $path (from $ref)"
            fail=1
          fi
        done
        ;;
      *'*'*)
        # Glob reference (e.g. bench/bench_table*.cc): any match suffices.
        found=0
        for path in $ref; do
          [ -e "$path" ] && found=1 && break
        done
        if [ "$found" -eq 0 ]; then
          echo "$doc: no match for glob $ref"
          fail=1
        fi
        ;;
      *)
        if [ -e "$ref" ]; then
          continue
        fi
        # Extensionless module reference (src/data/dataset): accept when
        # files with that stem exist.
        case "${ref##*/}" in
          *.*)
            echo "$doc: missing $ref"
            fail=1
            ;;
          *)
            found=0
            for path in "$ref".*; do
              [ -e "$path" ] && found=1 && break
            done
            if [ "$found" -eq 0 ]; then
              echo "$doc: missing $ref"
              fail=1
            fi
            ;;
        esac
        ;;
    esac
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED"
  exit 1
fi
echo "docs link check passed"
