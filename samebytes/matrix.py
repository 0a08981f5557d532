"""The same-bytes matrix: every CLI run whose bytes a change must keep, as data.

A run is one line: a group name and the words after ``python -m gsp_lab.cli``,
split as a shell would.  A word may hold placeholders:

- ``{name}``, a file of ``FILES`` or one of the two 200-knot tables beside
  this module, written once per matrix run from these literal bytes;
- ``{missing.csv}`` and ``{missing.json}``, paths where no file is;
- ``{dir}``, a directory;
- ``{out}``, the run's ``--out`` file, whose bytes are compared too.

The text of a run, placeholders unexpanded, is its name in reports and in
expect files.  Adding a run is one line of ``RUNS``.

Groups:

- ``cli``: every command on the power, perturbed and tabulated families, and
  every fault the CLI ends in one line: bad tables, bad config files, values
  outside a flag's domain, grids and counts that cannot be built, argparse
  errors;
- ``sample``: draws and estimates across scales, counts and seeds, to stdout
  and to ``--out``;
- ``grid``: ``verify``, ``detect`` and ``sweep`` on power laws, perturbed
  power laws and both tables, with each output format, a loose and a tight
  tolerance, a 9-scale grid and ``--out``, and ``verify`` on grids far
  below and far above a = 1.

``table.csv`` is the CI's seeded table: 200 log-jittered knots on
[0.01, 10] (``numpy.random.default_rng(1)``) of x (1 + 0.1 sin ln x).
``x15.csv`` holds x^1.5 on the same knots.  Both are literal bytes, because
numpy's ``exp`` rounds differently on different SIMD paths.
"""

FILES = {
    # tables the loader or validate refuses
    "negative.csv": b"x,f\n1.0,2.0\n2.0,-1.0\n3.0,4.0\n",
    "log_tie.csv": b"x,f\n1e300,1\n1.0000000000000002e300,2\n1.0000000000000004e300,3\n",
    "non_numeric.csv": b"x,f\n1.0,2.0\n1.5,oops\n",
    "headerless.csv": b"1.0,2.0\n2.0,3.0\n3.0,4.0\n",
    "non_utf8.csv": b"x,f\n1.0,2.0\n\xff,3.0\n",
    "non_decaying.csv": b"x,f\n0.01,5.0\n0.1,4.0\n1.0,3.0\n10.0,2.0\n",
    "one_row.csv": b"x,f\n1.0,2.0\n",
    "decreasing_x.csv": b"x,f\n2.0,1.0\n1.0,0.5\n3.0,2.0\n",
    "three_column.csv": b"x,f,g\n1.0,2.0,3.0\n2.0,3.0,4.0\n",
    # tables only csv.reader's row walk reads: quoted cells, CR LF line ends,
    # blank rows and padded fields; a byte-order mark before a header and
    # before data; a quoted cell that spans lines, before a row at fault
    "odd_valid.csv": (b'x,f\r\n"0.01", 0.001\r\n\r\n 0.1 ,0.0316227766\r\n , \r\n'
                      b'1,1\r\n"10",31.6227766\r\n'),
    "bom_header.csv": b"\xef\xbb\xbfx,f\n0.01,0.001\n0.1,0.0316227766\n1,1\n10,31.6227766\n",
    "bom_data.csv": b"\xef\xbb\xbf0.01,0.001\n0.1,0.0316\n1,1\n10,31.6\n",
    "multiline_cell.csv": b'x,f\n"0.01",0.001\n0.1,"0.0316\n"\n1,-1\n10,31.6\n',
    # a quoted cell longer than csv.reader's field size limit (131,072), and
    # an unquoted one that float() reads as 1.0
    "oversized_cell.csv": b'x,f\n0.5,1\n"0.' + b"0" * 139996 + b'1",2\n3,4\n',
    "oversized_number.csv": b"x,f\n0.5,1\n1." + b"0" * 139996 + b"0,2\n3,4\n",
    # config files, good and bad
    "good.json": b'{"family": "power", "p": 2.0, "format": "json"}',
    "bad_json.json": b'{"p": 2.0,',
    "non_object.json": b"[1, 2]",
    "unknown_key.json": b'{"q": 1}',
    "command_key.json": b'{"command": "sweep"}',
    "bad_float.json": b'{"p": "abc"}',
    "list_float.json": b'{"p": [1, 2]}',
    "bad_int.json": b'{"a_count": "many"}',
    "bad_bool.json": b'{"estimate": "yes"}',
    "bad_family.json": b'{"family": "cubic"}',
    "bad_format.json": b'{"format": "xml"}',
    "float_for_int.json": b'{"a_count": 9.7}',
    "non_utf8.json": b'{"p": "\xff"}',
    "bad_escape.json": b'{"p": "\\q"}',
    "infinite_count.json": b'{"a_count": Infinity}',
    "infinite_seed.json": b'{"seed": Infinity}',
    "infinite_n.json": b'{"n": Infinity}',
    "nan_count.json": b'{"a_count": NaN}',
    "huge_count.json": b'{"a_count": 1e30}',
}

_CONFIGS = [name for name in FILES if name.endswith(".json")] + ["missing.json", "dir"]
_SPECS = ["--family power --p 2", "--family perturbed --p 1 --eps 0.1",
          "--family power --p 0.3", "--family power --p 40",
          "--csv {table.csv}", "--csv {x15.csv}"]

RUNS = [
    # every command on each family, in both formats
    *(("cli", f"{cmd} {spec} --format {fmt}") for cmd in ("verify", "detect", "sweep")
      for spec in _SPECS for fmt in ("csv", "json")),
    *(("cli", f"sample {spec} --a 1 {draws}")
      for spec in ("--family power --p 2", "--family perturbed --p 1 --eps 0.1",
                   "--csv {table.csv}")
      for draws in ("--n 2000 --seed 7", "--n 20000 --seed 3 --estimate")),
    # tables that do not load or do not validate
    *(("cli", f"detect --csv {{{name}}}") for name in (
        "negative.csv", "log_tie.csv", "non_numeric.csv", "headerless.csv",
        "non_utf8.csv", "non_decaying.csv", "one_row.csv", "decreasing_x.csv",
        "three_column.csv", "missing.csv", "dir")),
    *(("cli", f"detect --csv {{{name}}}") for name in (
        "odd_valid.csv", "bom_header.csv", "bom_data.csv", "multiline_cell.csv",
        "oversized_cell.csv", "oversized_number.csv")),
    ("cli", "sample --csv {log_tie.csv} --a 1e300 --n 10"),
    # config files
    *(("cli", f"detect --config {{{name}}}") for name in _CONFIGS),
    ("cli", "sample --config {infinite_n.json} --a 1"),
    ("cli", "sample --config {infinite_seed.json} --a 1"),
    ("cli", "detect --config {good.json} --p 3"),
    # values outside a flag's domain
    *(("cli", f"detect --family power --p {p}") for p in ("0", "-1", "-0.5", "nan", "inf",
                                                           "-inf")),
    *(("cli", f"detect --family power --p 2 --amp {amp}") for amp in ("nan", "inf", "-inf",
                                                                     "-3")),
    *(("cli", f"detect --family perturbed --p 1 --eps {eps}") for eps in ("nan", "inf", "1",
                                                                         "-1.2")),
    ("cli", "detect --family perturbed --p nan"),
    ("cli", "detect --family power --p 45"),
    ("cli", "verify --family power --p 45"),
    ("cli", "detect --family power --p 200"),
    *(("cli", f"{cmd} --family power --p 2 --amp {amp}") for cmd in ("detect", "sweep")
      for amp in ("1e160", "1e200", "1e-200")),
    *(("cli", f"detect --family power --p 2 --tol {tol}") for tol in ("1e-4", "0", "-1",
                                                                     "nan")),
    ("cli", "sample --family power --p 2 --a 1 --n 10 --tol 0"),
    # grids that cannot be built, and sample values outside their domain
    *(("cli", f"detect --family power --p 2 {grid}") for grid in (
        "--a-min inf", "--a-max nan", "--a-min 0", "--a-min -1", "--a-min 5 --a-max 1",
        "--a-min 1 --a-max 1", "--a-count 4", "--a-count 0")),
    ("cli", "sweep --family power --p 2 --a-min 1 --a-max 1.0000000000000004 --a-count 9"),
    ("cli", "sweep --family power --p 2 --a-count 4"),
    ("cli", "detect --csv {table.csv} --a-min 20 --a-max 30"),
    ("cli", "verify --csv {table.csv} --a-min 9.99 --a-max 10 --a-count 5"),
    ("cli", "verify --csv {table.csv} --a-min 0.01 --a-max 10"),
    *(("cli", f"sample --family power --p 2 {arg}") for arg in (
        "--a 0", "--a -1", "--a inf", "--a 1 --n 0", "--a 1 --seed -1",
        "--a 1 --n 10 --seed 18446744073709551616", "--a 1 --n 50 --estimate")),
    *(("cli", f"sample --csv {{table.csv}} --a {a} --n 10") for a in ("0.01", "10", "20",
                                                                      "0.005")),
    *(("cli", f"sample --family power --p 2 --a 1 --n 5 {grid}") for grid in (
        "--a-count 3", "--a-min 5 --a-max 1", "--a-min inf")),
    ("cli", "detect --family power --p 2 --out missing/out.json"),
    # counts no array can hold, and grids up to the largest double
    ("cli", "detect --family power --p 2 --a-count 1000000000000000"),
    ("cli", "sample --family power --p 2 --a 1 --n 1000000000000000"),
    ("cli", "detect --family power --p 2 --a-count 1000000000000000000000000000000"),
    ("cli", "sample --family power --p 2 --a 1 --n 1000000000000000000000000000000"),
    ("cli", "sweep --family power --p 0.5 --a-min 1e300 --a-max 1.7976931348623157e308"),
    ("cli", "detect --family power --p 0.5 --a-min 1e-300 --a-max 1.7976931348623157e308"),
    # argparse's own errors and help, and negative values after a flag
    ("cli", "detect --family cubic"),
    ("cli", ""),
    ("cli", "detect --bogus"),
    ("cli", "detect --a-count 9.5"),
    ("cli", "--help"),
    ("cli", "detect --family power --p -1e-3"),
    ("cli", "detect --family perturbed --p 1 --eps -1e-2"),
    # draws and estimates across scales, counts and seeds
    *(("sample", f"sample {spec} --a {a} --n {n} --seed {seed}{est}{out}")
      for spec in ("--family power --p 2", "--family perturbed --p 1 --eps 0.1",
                   "--csv {table.csv}")
      for a in ("1e-300", "1e-3", "1", "7", "1e12", "1e300")
      for n in ("1", "100", "16385", "100000")
      for seed in ("3", "11")
      for est in ("", " --estimate")
      for out in ("", " --out {out}")),
    # the identity, detection and sweep commands across families and settings
    *(("grid", f"{cmd} {spec}{opt}") for cmd in ("verify", "detect", "sweep")
      for spec in ("--family power --p 2", "--family power --p 0.3",
                   "--family power --p 40", "--family perturbed --p 1 --eps 0.1",
                   "--family perturbed --p 0.05 --eps 0.04",
                   "--family perturbed --p 3 --eps 0.3",
                   "--family perturbed --p 1 --eps 1e-6", "--csv {table.csv}",
                   "--csv {x15.csv}")
      for opt in ("", " --format csv", " --format json", " --tol 1e-4", " --tol 1e-12",
                  " --a-count 9", " --out {out}")),
    # verify far below and far above a = 1, where d/da scales as 1/a
    *(("grid", f"verify {spec} {grid}")
      for spec in ("--family power --p 2", "--family perturbed --p 1 --eps 0.1")
      for grid in ("--a-min 1e-10 --a-max 1e-8", "--a-min 1e5 --a-max 1e7")),
]
