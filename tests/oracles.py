"""Reference computations that the tests hold the package against."""

from lazystates.matcore import I2, PAULIS, frob_norm, kron


def pinch_residual(rho, n):
    """||rho - (P0@I) rho (P0@I) - (P1@I) rho (P1@I)||_F, P± = (I ± n.s)/2.

    The change that measuring the first qubit along the unit vector n makes
    to rho: zero exactly when rho is classical on A in that basis, i.e. has
    zero discord with respect to A, with n its measurement direction.
    """
    n_sigma = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    pi0 = kron((I2 + n_sigma) / 2.0, I2)
    pi1 = kron((I2 - n_sigma) / 2.0, I2)
    return frob_norm(rho - pi0 @ rho @ pi0 - pi1 @ rho @ pi1)
