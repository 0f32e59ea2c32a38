#!/usr/bin/env bash
# Smoke run of the installed console script: run it from a scratch directory
# outside the checkout, with soficperm installed (or on PATH) and its python
# able to import the package.  It writes its files into the current
# directory and exits nonzero at the first check that fails.
set -eo pipefail
soficperm count-orders --n 8 --k 4 | tee script.out
soficperm make-approx --group z2 --n 11 --p 2 --q 3 --format csv
# both module entry points are the same program as the script
python -m soficperm count-orders --n 8 --k 4 | cmp script.out -
python -m soficperm.cli count-orders --n 8 --k 4 | cmp script.out -
# the parser: help exits 0; an unknown command and an --out that
# cannot be opened exit 2 with an error line, no traceback
expect_exit() {
  local want=$1 got=0
  shift
  "$@" > stdout.txt 2> stderr.txt || got=$?
  test "$got" -eq "$want"
}
# a refusal: exit 2, a stderr line matching the pattern and no
# traceback
refused() {
  local pattern=$1
  shift
  expect_exit 2 "$@"
  grep -q "$pattern" stderr.txt
  if grep -q Traceback stderr.txt; then exit 1; fi
}
# a run that exits 0 with a peak RSS of at most the given MB
rss_at_most() {
  python -c "import os, subprocess, sys; bound, argv = float(sys.argv[1]), sys.argv[2:]; p = subprocess.Popen(argv, stdout=subprocess.DEVNULL); _, status, usage = os.wait4(p.pid, 0); mb = usage.ru_maxrss / 1024; sys.exit(f'{\" \".join(argv)}: wait status {status}, peak RSS {mb:.1f} MB (at most {bound:g})' if status or mb > bound else 0)" "$@"
}
expect_exit 0 soficperm --help
expect_exit 0 soficperm verify --help
expect_exit 2 soficperm no-such-command
refused '^error:' soficperm count-orders --n 8 --k 4 --out /nonexistent/d/x.json
# an --out that names a directory is refused the same way
mkdir -p outdir
refused '^error:' soficperm count-orders --n 8 --k 4 --out outdir
# a run that fails with exit 2 leaves an existing --out file as it was
cp script.out kept.json
expect_exit 2 soficperm verify --spec missing.json --ball 1 --delta 1/10 --out kept.json
cmp script.out kept.json
# a zero denominator is a bad value, not a crash
refused '^error:' soficperm heuristic --n 10 --k 4 --eps 1/0
# an input file nested past json's recursion limit is a bad value too
python -c "open('deep.json', 'w').write('[' * 200000 + ']' * 200000)"
refused '^error:' soficperm amplify --perm deep.json --target-n 10
# align refuses specs of two families before it builds the ball,
# which at radius 12 would run far past the 5 s timeout (exit 124)
soficperm make-approx --group metab --n 11 --p 2 --q 3 --out metab.json
soficperm make-approx --group z2 --n 11 --p 2 --q 3 --out z2.json
refused '^error: family mismatch' timeout 5 soficperm align --spec1 metab.json --spec2 z2.json --ball 12
# count-orders at the count_table limit keeps a window of the
# recurrence, not the table a(0..n), which held about 277 MB
rss_at_most 100 soficperm count-orders --n 20000 --k 4
# brute force at the brute_force_n limit over all of Sym(9) holds its
# 9! rows as bytes; as int64 rows it peaked at about 112 MB
rss_at_most 80 soficperm search --group z2 --n 9 --p 1 --q 2 --k 2520 --algo brute
# the installed cli loads no module that count-orders does not run
python -c "import soficperm.cli, sys; loaded = [m for m in ('approx', 'conjsearch', 'heuristic', 'higman') if 'soficperm.' + m in sys.modules]; sys.exit(f'import soficperm.cli loaded {loaded}' if loaded else 0)"
# the counting commands and --help do no array work and need no
# mpmath: they exit 0 in a process where any import of numpy or
# mpmath raises
for argv in "['count-orders', '--n', '8', '--k', '4']" "['heuristic', '--n', '10', '--k', '4']" "['--help']"; do
  python -c "import sys; sys.modules['numpy'] = sys.modules['mpmath'] = None; import soficperm.cli; sys.exit(soficperm.cli.run($argv))" > /dev/null
done
# group arithmetic, records and the counting estimate are pure
# Python: they import and build a ball with numpy and mpmath
# blocked too
python -c "import sys; sys.modules['numpy'] = sys.modules['mpmath'] = None; import soficperm.groups, soficperm.heuristic, soficperm.serialize; sys.exit(0 if len(soficperm.groups.ball('metab', 3)) == 53 else 'metab ball of radius 3 is not 53 words')"
# a ball past ball_elements is refused as the search passes the
# limit; metab radius 40 has about 4 * 3^39 words
refused '^error: ball_elements limit' timeout 5 soficperm verify --spec metab.json --ball 40 --delta 1/10
# a count past count_work (n times the divisors of k up to n) is
# refused at once; at the count_table limit it would run a minute
refused '^error: count_work limit' timeout 5 soficperm count-orders --n 20000 --k 2520
# verify on a ball of 2403 elements, several rows per index block
soficperm make-approx --group bs --n 1009 --m 2 --out bs.json
expect_exit 0 timeout 60 soficperm verify --spec bs.json --ball 9 --delta 1/10 --format csv
if grep -q Traceback stderr.txt; then exit 1; fi
python -c "import csv, sys; rows = list(csv.DictReader(open('stdout.txt'))); sys.exit(0 if [(r['elements_checked'], r['pairs_checked']) for r in rows] == [('2403', '1105633')] else f'verify --ball 9 on bs: {rows}')"
# a parameter the family does not take is refused, not ignored
refused '^error:' soficperm make-approx --group heis --n 5 --p 7
# so is a search flag the run would ignore: --n without --group
refused '^error:' soficperm search --spec z2.json --n 5 --k 4
# an action on more than 2^18 points is recorded by p and its
# two tables, not by five permutations (21.8 MB at p = 23)
soficperm higman-action --p 23 --random --out a23.json
python -c "import json, os, sys; r = json.load(open('a23.json'))['result']; size = os.path.getsize('a23.json'); sys.exit(0 if 'perms' not in r and size < 10240 else f'higman-action --p 23: perms in record {\"perms\" in r}, {size} bytes')"
# a record builds no permutation it does not list: at p = 43 the
# five on p^4 points peaked at about 369 MB of RSS
rss_at_most 100 soficperm higman-action --p 43 --random --out a43.json
# the checks compose one copy's lamp conjugates, O(window) tables
# of p^4 points: at p = 31, window 3 composing every copy's
# O(window^2) products peaked at about 297 MB of RSS
rss_at_most 200 soficperm higman-action --p 31 --random --check --window 3 --out a31.json
python -c "import json, sys; sys.exit(0 if json.load(open('a31.json'))['result']['relations']['passed'] is True else 'higman-action --p 31 --check --window 3: relations did not pass')"
