"""Exception hierarchy shared by all quandlekit modules."""


class QuandlekitError(Exception):
    """Base class for all domain errors raised by quandlekit."""


class AxiomViolation(QuandlekitError):
    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"rack axiom {axiom!r} fails at {witness}")


class NotAQuandle(QuandlekitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"idempotence fails at element {witness}")


class InvalidGroup(QuandlekitError):
    pass


class NotNormalized(QuandlekitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subgroup not normalized by inner group, witness {witness}")


class OrderCapExceeded(QuandlekitError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"group closure exceeds order cap {cap}")


class NotNilpotent(QuandlekitError):
    pass


class TargetNotNilpotent(QuandlekitError):
    pass


class InfiniteIndex(QuandlekitError):
    pass


class CapExceeded(QuandlekitError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"size exceeds cap {cap}")


class InfiniteOrbit(QuandlekitError):
    def __init__(self, orbit):
        self.orbit = orbit
        super().__init__(f"orbit {orbit} is infinite (rank-deficient stabilizer)")


class InvalidOrbitLattice(QuandlekitError):
    """Two-nilpotent data whose lattice H_orbit is not a sublattice of Z^n
    containing e_orbit, for n orbits."""

    def __init__(self, orbit, message):
        self.orbit = orbit
        super().__init__(message)


class NotTwoNilpotent(QuandlekitError):
    pass


class InvalidData(QuandlekitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coset construction data invalid, witness {witness}")


class NotGeneratedByTransversal(QuandlekitError):
    pass


class NotUnit(QuandlekitError):
    pass


class InvalidRange(QuandlekitError):
    pass


class NotInvertibleRepresentation(QuandlekitError):
    pass


class BudgetExceeded(QuandlekitError):
    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"scan budget {budget} exceeded")


class ParseError(QuandlekitError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")
