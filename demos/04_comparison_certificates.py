"""Comparison failure made finite: obstruction ranks and witness ledgers.

The infinite-dimensional claim behind the construction is out of reach of
any computation, so the package ships what is checkable instead.  A
witness certificate fixes one level n and one rank M, and its ledger rows
are inequalities between explicit integers and rationals that any reader
can re-derive.  The re-verifier does exactly that and insists on
structural equality with its own recomputation.
"""

import json
from fractions import Fraction

from ahtower import (
    chern_min_embedding_rank,
    search_witness,
    tables_from_cli,
    verify_witness_json,
)


def show_ledger(witness):
    print(f"  witness level n = {witness.n}, rank M = {witness.M}")
    for row in witness.ledger:
        print(f"  {row.name}: {row.lhs} {row.relation} {row.rhs}"
              f"  [{'ok' if row.holds else 'FAIL'}]")


def main():
    # ------------------------------------------------------------------
    # the source of all non-comparison is a bundle whose k-fold product
    # needs rank 2k to embed trivially, by a lemma in Z[x_i]/(x_i^2)
    # ------------------------------------------------------------------
    ranks = [chern_min_embedding_rank(k) for k in range(1, 7)]
    print("minimal trivial-embedding ranks:", ranks)
    print()

    # ------------------------------------------------------------------
    # plain tower: rho-comparison fails below the radius
    # ------------------------------------------------------------------
    t = tables_from_cli("1/2", "1/3", d=1, depth=4)
    print("plain tower witness for rho = 1/4:")
    w = search_witness(t, Fraction(1, 4), crossed=False)
    show_ledger(w)
    print()

    # ------------------------------------------------------------------
    # transformed tower: same game with the primed rates, plus trace
    # agreement rows tying corner weights to slot counts
    # ------------------------------------------------------------------
    print("crossed witness for rho = 1/4:")
    wc = search_witness(t, Fraction(1, 4), crossed=True)
    show_ledger(wc)
    print()

    # ------------------------------------------------------------------
    # round trip through JSON, then a deliberate corruption
    # ------------------------------------------------------------------
    doc = json.loads(json.dumps(w.to_json_obj()))
    print("re-verifier on the emitted certificate:",
          "accepted" if verify_witness_json(doc).ok else "rejected")

    forged = json.loads(json.dumps(doc))
    forged["M"] = str(int(forged["M"]) + 1)
    report = verify_witness_json(forged)
    bad = report.first_failure
    print("re-verifier on a forged rank:",
          "accepted" if report.ok else "rejected")
    print(f"  first divergence: {bad.name} ({bad.detail})")


if __name__ == "__main__":
    main()
