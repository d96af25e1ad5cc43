"""The three-qubit CCZ state: where all three monotones collapse.

CCZ|+++> is prepared by a third-level gate acting on stabilizer input, and
for such states the extent log equals the min-relative entropy of magic.
Here the free robustness joins them too: dmin = dmax = LR = log2(16/9).
"""

import numpy as np

from magiclab import (
    enumerate_stabilizer_states,
    hypergraph_state,
    magic_report,
    parse_anf,
)

dic = enumerate_stabilizer_states(3, 2)
print(f"dictionary: {dic.size} three-qubit stabilizer states")

psi = hypergraph_state(parse_anf("x1*x2*x3"))
report = magic_report(psi, dic)

print(f"""
best stabilizer overlap        {np.sqrt(report.fidelity):.6f}   (exactly 3/4)
dmin                           {report.dmin:.8f}
dmax = log2(xi)                {report.dmax:.8f}   xi = {report.xi:.8f} (16/9 = {16 / 9:.8f})
LR   = log2(1 + R)             {report.lr:.8f}   l1 mass = {report.l1:.8f} (23/9 = {23 / 9:.8f})
""")

print("approximate stabilizer-rank budget 1 + xi / eps^2:")
for eps in (0.5, 0.1, 0.01):
    print(f"  eps = {eps:<5} -> {1.0 + report.xi / eps**2:,.1f}")
