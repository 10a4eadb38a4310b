#!/bin/sh
# Drive the command line front end end to end on a scratch directory.
# Runs this checkout's package with python3 -m supertropical, so it
# needs no install and never picks up another installed copy.
set -eu

src=$(cd "$(dirname "$0")/../src" && pwd)
PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
supertropical() { python3 -m supertropical "$@"; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/A.mat" <<'EOF'
# a three by three tangible matrix with tangible determinant
5 5 4
0 1 4
0 2 4
EOF

cat > "$work/S.mat" <<'EOF'
1 1 2
1 1 3
EOF

printf '0 1 3\n' > "$work/v.vec"

echo "== determinant and adjoint =="
supertropical det "$work/A.mat"
supertropical adj "$work/A.mat"

echo "== quasi-identities, both sides =="
supertropical qid "$work/A.mat"
supertropical qid --right "$work/A.mat"

echo "== rank and dependence =="
supertropical rank "$work/A.mat"
supertropical dep --target "$work/v.vec" "$work/S.mat"
supertropical saturate --target "$work/v.vec" "$work/S.mat"

echo "== minimal spanning subset =="
supertropical sbase "$work/A.mat"

echo "== symmetry scan with a seed, machine readable =="
supertropical orthosym --seed 7 --budget 50 --json "$work/A.mat"

echo "== the singular path exits 1 =="
cat > "$work/sing.mat" <<'EOF'
0 0
0 0
EOF
if supertropical nabla "$work/sing.mat"; then
  echo "unexpected success" >&2
  exit 1
else
  echo "exit code $? as intended"
fi

echo "== oracle cross-checks =="
supertropical oracle det "$work/A.mat"
supertropical oracle dep --target "$work/v.vec" "$work/S.mat"
