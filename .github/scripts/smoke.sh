#!/usr/bin/env bash
# Console-script smoke run: every randvol command on tiny inputs, writing its files to the current directory.
# Usage: bash .github/scripts/smoke.sh [command ...]
# The command defaults to the installed `randvol` console script; `python -m randvol.cli` runs the source tree.
set -eo pipefail
if [ "$#" -eq 0 ]; then set -- randvol; fi
cmd=("$@")
randvol() { command "${cmd[@]}" "$@"; }

# a plain slice refuses an order the expansion lacks (exit 2)
echo '{"type": "flat", "sigma": 0.2}' > smoke_flat.json
rc=0; randvol iv --spot 100 --params smoke_flat.json --expiry 1 --strikes 90,100 --engine expansion:5 || rc=$?
test "$rc" -eq 2
echo '{"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.4, "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.13}, "n_q": 2}}' > smoke.json
randvol price --spot 100 --rate 0.02 --params smoke.json --expiry 0.5 --strikes 90,100,110 --engine expansion:6
randvol iv --spot 100 --rate 0.02 --params smoke.json --expiry 0.5 --strikes 90,100,110 --engine brent
# a public call whose guard trips warns on stderr
randvol iv --spot 100 --rate 0.02 --params smoke.json --expiry 0.5 --engine expansion:6 \
  --k-min 40 --k-max 250 --n-strikes 41 2> smoke_iv_wide.err
grep -qx 'expansion guard tripped at 21 of 41 grid points; falling back to the exact inversion' smoke_iv_wide.err
randvol density --spot 100 --rate 0.02 --params smoke.json --expiry 0.5 2> smoke_density.err
# its stderr line: the density's mass within 1e-3 of 1, and its mean within 1e-3 of the forward, relative
awk -F'[= ]' '/^mass=/ { m = $4 / $6; ok = $2 - 1 <= 1e-3 && 1 - $2 <= 1e-3 && m - 1 <= 1e-3 && 1 - m <= 1e-3 }
  END { exit !ok }' smoke_density.err
randvol check-arb --spot 100 --rate 0.02 --params smoke.json --expiry 0.5
# the 1-day W-shape spot-SABR slice: at the money the order-4 expansion prints the exact (Brent) vol within 1e-10
echo '{"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.2, "gamma": 2, "randomizer": {"target": "spot", "dist": {"family": "spot-lognormal", "nu": 0.03}, "n_q": 2}}' > smoke_wshape.json
for engine in expansion:4 brent; do
  randvol iv --spot 100 --params smoke_wshape.json --expiry 0.0027397 --strikes 96,100,104 --engine "$engine" \
    > "smoke_wshape_${engine%%:*}.csv"
done
awk -F, 'FNR > 1 && $2 == 100 { v[++n] = $3 } END { d = v[1] - v[2]; exit !(n == 2 && d <= 1e-10 && -d <= 1e-10) }' \
  smoke_wshape_expansion.csv smoke_wshape_brent.csv
# a params file of the wrong JSON shape, and --expiry with a two-slice file, each refused (exit 2)
echo '[1,2]' > smoke_bad.json
rc=0; randvol iv --spot 100 --params smoke_bad.json --expiry 1 --strikes 90,100 || rc=$?; test "$rc" -eq 2
echo '{"slices": [{"expiry": 0.5, "params": {"type": "flat", "sigma": 0.2}}, {"expiry": 1, "params": {"type": "flat", "sigma": 0.2}}]}' > smoke_slices.json
rc=0; randvol check-arb --spot 100 --params smoke_slices.json --expiry 1 || rc=$?; test "$rc" -eq 2
# a slices-file entry without its params: refused (exit 2) with a line naming the field
echo '{"slices": [{"expiry": 0.5}]}' > smoke_bad.json
rc=0; randvol check-arb --spot 100 --params smoke_bad.json 2> smoke_bad.err || rc=$?; test "$rc" -eq 2
grep -qx "error: malformed params file smoke_bad.json: slices entry 1 has no 'params'" smoke_bad.err
# a params file that lacks a field: refused (exit 2) with a line naming it
echo '{"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.3}' > smoke_bad.json
rc=0; randvol iv --spot 100 --params smoke_bad.json --expiry 1 --strikes 90,100 2> smoke_bad.err || rc=$?
test "$rc" -eq 2
grep -qx "error: malformed slice params: missing field 'gamma'" smoke_bad.err
# an infinite gamma shape: refused (exit 2) by its domain, with a line naming the parameter
sed 's/"k": 3.0/"k": Infinity/' smoke.json > smoke_inf.json
rc=0; randvol iv --spot 100 --params smoke_inf.json --expiry 1 --strikes 90,100 2> smoke_inf.err || rc=$?
test "$rc" -eq 2
grep -qx "error: k must be > 0 and finite, got inf" smoke_inf.err
# an infinite flat vol: refused (exit 2) by its domain, not by the quadrature
echo '{"type": "flat", "sigma": Infinity}' > smoke_inf.json
rc=0; randvol iv --spot 100 --params smoke_inf.json --expiry 1 --strikes 90,100 2> smoke_inf.err || rc=$?
test "$rc" -eq 2
grep -qx "error: sigma must be >= 0 and finite, got inf" smoke_inf.err
# a negative or too coarse butterfly grid, and a too coarse density grid: refused (exit 2) with a line naming the
# flag, its value and the floor the second differences need
for size in -1 10; do
  rc=0; randvol check-arb --spot 100 --params smoke_flat.json --expiry 0.5 --grid-points "$size" 2> smoke_grid.err \
    || rc=$?
  test "$rc" -eq 2
  grep -qx "error: --grid-points must be at least 50, got $size" smoke_grid.err
done
rc=0; randvol density --spot 100 --params smoke_flat.json --expiry 0.5 --n-strikes 10 2> smoke_grid.err || rc=$?
test "$rc" -eq 2
grep -qx "error: --n-strikes must be at least 50, got 10" smoke_grid.err
# two interleaved expiries, behind a byte-order mark and with CRLF line endings
printf '\xef\xbb\xbfexpiry,strike\r\n1.0,110\r\n0.5,90\r\n1.0,100\r\n0.5,105\r\n' > smoke_points.csv
randvol iv --spot 100 --rate 0.02 --params smoke.json --points smoke_points.csv --engine expansion:6 \
  --out smoke_iv.csv
randvol price --spot 100 --rate 0.02 --params smoke.json --points smoke_points.csv --out smoke_price.csv
test "$(wc -l < smoke_iv.csv)" -eq 5 && test "$(wc -l < smoke_price.csv)" -eq 5
# a 3-expiry points file, evaluated in one stacked call, prints the bytes of the per-expiry runs, on each engine
printf '%s\n' expiry,strike 1,100 0.25,95 0.5,90 0.25,105 0.5,110 0.5,100 > smoke_points3.csv
for engine in brent expansion:6; do
  for command in iv price; do
    randvol "$command" --spot 100 --rate 0.02 --params smoke.json --points smoke_points3.csv --engine "$engine" \
      --out smoke_points3_out.csv
    { echo "expiry,strike,$command"
      for run in "0.25 95,105" "0.5 90,110,100" "1 100"; do
        read -r expiry strikes <<< "$run"
        randvol "$command" --spot 100 --rate 0.02 --params smoke.json --expiry "$expiry" --strikes "$strikes" \
          --engine "$engine" | tail -n +2
      done; } > smoke_points3_each.csv
    cmp smoke_points3_out.csv smoke_points3_each.csv
  done
done
# a two-model slices file (flat, then the SABR slice): both stacks pass every check (exit 0)
printf '{"slices": [{"expiry": 0.5, "params": %s}, {"expiry": 1, "params": %s}]}\n' "$(cat smoke_flat.json)" \
  "$(cat smoke.json)" > smoke_surface.json
randvol check-arb --spot 100 --rate 0.02 --params smoke_surface.json
printf '%s\n' expiry_date,strike,type,iv,open_interest 2024-10-31,80,C,0.222,100 2024-10-31,85,C,0.21425,100 \
  2024-10-31,90,C,0.208,100 2024-10-31,95,C,0.20325,100 2024-10-31,100,C,0.2,100 2024-10-31,105,C,0.19825,100 \
  2024-10-31,110,C,0.198,100 2024-10-31,115,C,0.19925,100 2024-10-31,120,C,0.202,100 > smoke_quotes.csv
printf '%s\n' 'spot = 100' 'rate = 0.02' 'trade_date = 2024-07-31' 'model = sabr' 'randomizer = gamma-gamma' \
  'n_q = 2' 'beta = 0.9' 'multistart = 2' > smoke.cfg
# a fit's stderr is its one summary line: the calibrator's escalations log below warning level
fit_line_only() {
  test "$(wc -l < smoke_fit.err)" -eq 1
  grep -qx 'fit: slices=1 failed=0 model_calls=[0-9]* evaluations=[0-9]*' smoke_fit.err
}
randvol fit --quotes smoke_quotes.csv --config smoke.cfg --out-dir smoke_fit 2> smoke_fit.err
test -s smoke_fit/fit_T0_252055.json && test -s smoke_fit/residuals_T0_252055.csv
fit_line_only
# the same fit again writes the same bytes: trial points and their memoized stencils keep a fit deterministic
randvol fit --quotes smoke_quotes.csv --config smoke.cfg --out-dir smoke_fit_again 2> smoke_fit.err
fit_line_only
cmp smoke_fit/fit_T0_252055.json smoke_fit_again/fit_T0_252055.json
cmp smoke_fit/residuals_T0_252055.csv smoke_fit_again/residuals_T0_252055.csv
# a short quote row: refused (exit 2) with its line and the first column it lacks
printf '%s\n' strike,expiry_date,type,iv,open_interest 105 > smoke_short_quotes.csv
rc=0; randvol fit --quotes smoke_short_quotes.csv --config smoke.cfg --out-dir smoke_fit_short 2> smoke_short.err \
  || rc=$?
test "$rc" -eq 2
grep -qx "error: line 2: missing value for 'expiry_date'" smoke_short.err
# a quote row whose open interest has a thousands separator, one field more than the header: refused (exit 2) with its
# line, not read as an open interest of 1
printf '%s\n' expiry_date,strike,type,iv,open_interest 2024-10-31,80,C,0.222,1,000 > smoke_long_quotes.csv
rc=0; randvol fit --quotes smoke_long_quotes.csv --config smoke.cfg --out-dir smoke_fit_long 2> smoke_long.err || rc=$?
test "$rc" -eq 2
grep -qx "error: line 2: 1 field(s) more than the header" smoke_long.err
# gamma-gamma on the expansion engine, named (its default before the exact engine), and spot-lognormal on its
# default engine; a key's last line wins
for extra in 'engine = expansion' 'randomizer = spot-lognormal'; do
  { cat smoke.cfg; echo "$extra"; } > smoke_fit_extra.cfg
  randvol fit --quotes smoke_quotes.csv --config smoke_fit_extra.cfg --out-dir smoke_fit_extra 2> smoke_fit.err
  fit_line_only
done
# beta is pinned at the config's value
{ cat smoke.cfg; echo 'beta = 0.7'; } > smoke_beta.cfg
randvol fit --quotes smoke_quotes.csv --config smoke_beta.cfg --out-dir smoke_fit_beta 2> smoke_fit.err
fit_line_only
grep -q '"beta": 0.7,' smoke_fit_beta/fit_T0_252055.json
# a config value that does not convert: refused (exit 2) with its line and key
{ cat smoke.cfg; echo 'n_q = 2.5'; } > smoke_bad.cfg
rc=0; randvol fit --quotes smoke_quotes.csv --config smoke_bad.cfg --out-dir smoke_fit_bad 2> smoke_bad_cfg.err || rc=$?
test "$rc" -eq 2
grep -qx "error: config line 9: n_q: invalid literal for int() with base 10: '2.5'" smoke_bad_cfg.err
