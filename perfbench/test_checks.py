"""Hand-worked values for the benchmark's independent checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import random
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class HilbertTest(unittest.TestCase):
    def test_readme_example(self):
        # 5 = 5^1 * 1 and 2 is a unit: (5, 2)_5 = (2/5) = -1
        self.assertEqual(checks.hilbert_qp(5, 2, 5), -1)

    def test_hand_worked(self):
        self.assertEqual(checks.hilbert_qp(2, 3, 5), 1)       # two units
        self.assertEqual(checks.hilbert_qp(3, 3, 3), -1)      # (-1/3)
        self.assertEqual(checks.hilbert_qp(5, 5, 5), 1)       # (-1/5)
        self.assertEqual(checks.hilbert_qp(7, 3, 7), -1)      # (3/7)
        self.assertEqual(checks.hilbert_qp(Fraction(1, 7), 2, 7), 1)  # (2/7)
        self.assertEqual(checks.hilbert_qp(-1, 3, 3), -1)     # (-1/3)

    def test_symmetric_and_bimultiplicative(self):
        rng = random.Random(0)
        for p in (3, 5, 7):
            for _ in range(50):
                a, b, c = (Fraction(rng.choice((1, -1)) * rng.randrange(1, 99),
                                    rng.randrange(1, 20)) for _ in range(3))
                h = checks.hilbert_qp
                self.assertEqual(h(a, b, p), h(b, a, p))
                self.assertEqual(h(a * c, b, p), h(a, b, p) * h(c, b, p))
                self.assertEqual(h(a, -a, p), 1)

    def test_hasse_and_square_class(self):
        self.assertEqual(checks.hasse_diag([3, 3], 3), -1)
        self.assertEqual(checks.hasse_diag([1, 2, 3], 5), 1)
        self.assertEqual(checks.square_class_tag(4, 3), "1")
        self.assertEqual(checks.square_class_tag(2, 3), "u0")
        self.assertEqual(checks.square_class_tag(3, 3), "p")
        self.assertEqual(checks.square_class_tag(6, 3), "u0p")
        self.assertEqual(checks.square_class_tag(Fraction(1, 9), 3), "1")


class SymplecticTest(unittest.TestCase):
    def test_symplectic_check(self):
        self.assertTrue(checks.is_symplectic(checks.form_j(1)))
        self.assertTrue(checks.is_symplectic(((1, 1), (0, 1))))
        self.assertFalse(checks.is_symplectic(((1, 1), (1, 1)), 3))
        self.assertTrue(checks.is_symplectic(((2, 0), (0, 2)), 3))   # det 4=1
        self.assertFalse(checks.is_symplectic(((2, 0), (0, 2))))     # over Q
        w = ((0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
        self.assertTrue(checks.is_symplectic(w))
        self.assertFalse(checks.is_symplectic(
            ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))))

    def test_sl2_order(self):
        for q in (3, 5, 7):
            self.assertEqual(len(checks.sl2(q)), checks.sl2_order(q))
        self.assertEqual(checks.sl2_order(3), 24)
        self.assertEqual(checks.sl2_order(7), 336)

    def test_generated_words_are_symplectic(self):
        rng = random.Random(1)
        for m, p in ((2, 3), (1, None), (2, None)):
            for _ in range(20):
                g = workloads.random_word(rng, m, 8, 2, p)
                self.assertTrue(checks.is_symplectic(g, p))
        g = workloads.random_word(rng, 1, 5, 2)
        self.assertTrue(all(isinstance(v, Fraction) for r in g for v in r))


class ThetaDimensionTest(unittest.TestCase):
    def test_orthogonal_groups_over_f3(self):
        self.assertEqual(checks.orthogonal_group(((1,),), 3),
                         [((1,),), ((2,),)])
        self.assertEqual(len(checks.orthogonal_group(((1, 0), (0, 1)), 3)), 8)
        self.assertEqual(len(checks.orthogonal_group(((1, 0), (0, 2)), 3)), 4)

    def test_theta_dims(self):
        o1 = checks.orthogonal_group(((1,),), 3)
        chars = checks.pm_characters(o1, 3)
        self.assertEqual(len(chars), 2)
        dims = {("trivial" if all(v == 1 for v in c.values()) else "sign"):
                checks.theta_dim(o1, c, 3) for c in chars}
        self.assertEqual(dims, {"trivial": 2, "sign": 1})
        o2 = checks.orthogonal_group(((1, 0), (0, 1)), 3)
        trivial = {h: 1 for h in o2}
        self.assertEqual(checks.theta_dim(o2, trivial, 3), 3)
        # the four linear characters of this dihedral group of order 8 see
        # (4/8)(fix(1) + fix(-1)) = (9 + 1)/2 = 5 of the 9 dimensions
        self.assertEqual(sum(checks.theta_dim(o2, c, 3)
                             for c in checks.pm_characters(o2, 3)), 5)


class GaussSumTest(unittest.TestCase):
    def test_hand_worked(self):
        # F_3: 1 + 2 zeta; its square is (-1/3) 3 = -3
        self.assertEqual(checks.gauss_product([1], 3), [1, 2])
        self.assertEqual(checks.gauss_product([1, 1], 3), [-3, 0])
        # F_5: g(1) g(2) = (2/5) (-1/5) 5 = -5
        self.assertEqual(checks.gauss_product([1, 2], 5), [-5, 0, 0, 0])


class TailTest(unittest.TestCase):
    def test_tail_rank(self):
        self.assertEqual(run.tail_rank(500), (489, 98.0))
        self.assertEqual(run.tail_rank(40), (29, 75.0))
        self.assertEqual(run.tail_rank(39), (None, 50.0))


if __name__ == "__main__":
    unittest.main()
