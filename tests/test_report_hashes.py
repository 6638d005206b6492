"""Pinned content hashes of canonical reports.

A refactor must leave every answer, certificate and report byte-identical;
any drift in a report's result, evidence or effort changes these hashes.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from euclidmin.cli import RunConfig, canonical_payload_bytes, run_command

Z16 = {"field": {"poly": [-1, 1]}, "S": {"primes": [2, 3]},
       "ideal": {"gens": [[1]]}}
QI = {"field": {"poly": [1, 0, 1]}, "S": {"primes": []},
      "ideal": {"gens": [[1, 0]]}}
ZM5 = {"field": {"poly": [5, 0, 1]}, "S": {"primes": []},
       "ideal": {"gens": [[1, 0]]}}
ZM5_CLASS = {"field": {"poly": [5, 0, 1]}, "S": {"primes": []},
             "ideal": {"gens": [[2, 0], [1, 1]]}}
# a real place; a complex place with a finite place of S
QS2 = {"field": {"poly": [-2, 0, 1]}, "S": {"primes": []},
       "ideal": {"gens": [[1, 0]]}}
QI_2 = {"field": {"poly": [1, 0, 1]}, "S": {"primes": [2]},
        "ideal": {"gens": [[1, 0]]}}
QM3_3 = {"field": {"poly": [1, 1, 1]}, "S": {"primes": [3]},
         "ideal": {"gens": [[1, 0]]}}
# degrees 3 and 4, whose root boxes carry denominators of hundreds of bits
K3 = {"field": {"poly": [-1, -1, 0, 1]}, "S": {"primes": []},
      "units": {"gens": [[0, 1, 0]]}}
K3_XI = dict(K3, params={"xi": ["1/3", "1/2", "0"]})
Z5 = {"field": {"poly": [1, 1, 1, 1, 1]}, "S": {"primes": []},
      "units": {"gens": [[1, 1, 0, 0]]}}
Z5_XI = dict(Z5, params={"xi": ["1/3", "1/2", "0", "0"]})
# one of the two places above 5, so the corner scan takes valuations at a
# partial S
QI_5 = {"field": {"poly": [1, 0, 1]},
        "S": {"primes": [{"p": 5, "indices": [0]}]},
        "ideal": {"gens": [[1, 0]]}, "params": {"xi": ["1/5", "2/5"]}}
# Q(zeta7)+ with units theta and theta - 1: both reports below take the
# box-enumeration branch of m_exact
Z7 = {"field": {"poly": [1, -2, -1, 1]}, "S": {"primes": []},
      "units": {"gens": [[0, 1, 0], [-1, 1, 0]]}}
Z7_XI = dict(Z7, params={"xi": ["1/7", "1/7", "2/7"]})

PINNED = [
    ("cover", Z16, {"t": F(21, 100)},
     "ca25c11fb664bce97b4f45bdb872872458bf74bd790fe74d0e3b4b479c8a2861"),
    ("M", Z16, {"gap": F(1, 100)},
     "2673a8af5fbece69049b32a331a1fd1de715e64c005b7031c281fc95cd14ea7f"),
    ("decide", Z16, {},
     "6f9f8668be386ebef18fff873b637a6c601c6becc686910167406b9d46e7d476"),
    ("decide", QI, {},
     "0e60908074083f461e0a2082f7204ab70eaf521b12e61f277066af690ec823ac"),
    ("decide", ZM5, {},
     "51a6719f975ee1542b60d6f1447ddb4801848d35402ac11dd5eadae938b44ee2"),
    ("decide", ZM5_CLASS, {},
     "3f26959f96f298aca5ff08b9f43e27eaf3d8d5a58785685157ec2a0ac565ff9f"),
    ("decide", QS2, {},
     "3eda9919c88292e165b861854c8ac8e46624fb12bc3c9bc0b7b5e923c0a4a8c6"),
    ("cover", QI_2, {"t": F(1, 4)},
     "3832eff5730a52ddd7f10125002d1ac02d365d71d0e4588222295a4379cc0b42"),
    ("M", QM3_3, {"gap": F(1, 10)},
     "238d9fdffe3e4c365e03580614c77ef45344e12a3eee6ad325adfc6e71daa833"),
    ("m", K3_XI, {},
     "d4aa6361bb84fef55dcd29f7f5967b1a1e07e15f8165e0dda9bdf7c9e2e6903e"),
    ("m", Z5_XI, {},
     "b7c241070439aedc94e2efccccd86a3318d5bd2c08a9998e76d342f95f7257c0"),
    ("cover", K3, {"t": F(1)},
     "dc3e8a5cf27c45c8db1d36d0b2911cba370dcb2f43e8b89f447267b182ec1c54"),
    # a witness orbit of 15 classes, 16 corner shifts per representative
    ("search", Z5, {"denom_bound": 3},
     "8b272aff76bda18dd5f7d4faa1e09471bff0210408d319713754e8891255d989"),
    ("m", QI_5, {},
     "fd306ef29daecbc876f7f531104ef306b0cd02bb53d6c59804c37e4d278e788b"),
    # witness (1/7, 1/7, 2/7), value 1/7, orbit 6
    ("search", Z7, {"denom_bound": 8},
     "6d83585cf24e8bb3844a509535cfe67fa80bc47d7a2454dcb9f877b131e6b10f"),
    ("m", Z7_XI, {},
     "d7162bf06e6a2a61ac674a85da02c1845ab8700e8a1153da69013441e60ac49a"),
]


@pytest.mark.parametrize("command,raw,overrides,digest", PINNED,
                         ids=["cover-z16", "M-z16", "decide-z16", "decide-qi",
                              "decide-m5", "decide-m5class", "decide-sqrt2",
                              "cover-qi-s2", "M-sqrt-3-s3", "m-cubic",
                              "m-zeta5", "cover-cubic", "search-zeta5",
                              "m-qi-s5-partial", "search-zeta7plus",
                              "m-zeta7plus"])
def test_report_content_hash_pinned(command, raw, overrides, digest):
    cfg = RunConfig(json.loads(json.dumps(raw)))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    doc = run_command(cfg, command)
    assert hashlib.sha256(canonical_payload_bytes(doc)).hexdigest() == digest
