"""numpy's standard normals, computed without numpy.

``standard_normal(entropy, count)`` returns the floats of
``numpy.random.default_rng(entropy).standard_normal(count)`` for a list of
nonnegative integers ``entropy``, as numpy 2.4.6 computes them in C:

- ``SeedSequence(entropy)`` splits each integer into 32-bit words, least
  significant first, hashes the first four into a pool of four (zeros
  stand in for missing ones), mixes every pool word into every other and
  each further word into every pool word, and hashes the pool out into
  four 64-bit words (``generate_state(4, uint64)``);
- ``PCG64`` (O'Neill, "PCG: a family of simple fast space-efficient
  statistically good algorithms for random number generation", 2014) takes
  the first two words as its 128-bit state and the last two as its
  increment, steps by a 128-bit linear congruence and outputs 64 bits by
  XSL-RR: the two halves xor-ed, rotated right by the state's top six bits;
- each normal is numpy's 256-layer ziggurat (Marsaglia and Tsang, "The
  Ziggurat Method for Generating Random Variables", 2000): one output gives
  the layer, the sign and 52 bits; a draw inside the layer's box is
  returned at once, layer 0 beyond ``R`` samples the tail with ``log1p``,
  and any other layer accepts a draw in its wedge against ``exp``.

The ziggurat tables are numpy's, not recomputed: one ulp in a table moves
a draw to another branch.  ``TABLES`` packs ``fi_double`` and
``wi_double`` (256 doubles each) and ``ki_double`` (256 unsigned 64-bit
integers), in that order and little-endian, as read from the ``.rodata``
of numpy 2.4.6's ``numpy/random/_generator`` extension module; they come
from numpy's ``random/src/distributions/ziggurat_constants.h``:

    Copyright (c) 2005-2025, NumPy Developers.
    Copyright (c) 2019 Kevin Sheppard.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

    * Redistributions of source code must retain the above copyright
      notice, this list of conditions and the following disclaimer.
    * Redistributions in binary form must reproduce the above copyright
      notice, this list of conditions and the following disclaimer in the
      documentation and/or other materials provided with the distribution.
    * Neither the name of the NumPy Developers nor the names of any
      contributors may be used to endorse or promote products derived from
      this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A
    PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

numpy's NEP 19 does not promise the ``Generator`` stream across numpy
versions; this module keeps it fixed whatever numpy is installed.  It
imports only the standard library.
"""

from __future__ import annotations

import math
from binascii import a2b_base64
from struct import unpack
from typing import List, Sequence, Tuple

TABLES = a2b_base64(
    """
AAAAAAAA8D+H8HnJakTvPxWpbFtUt+4/d/An4BE/7j+V3gSnb9PtP/K8VwaScO0/3BmheEkU7T/r
LaeoM73sP394qc5eauw/6rru2Rwb7D+C3OFO687rP1L1jzplhes/EN00gjo+6z+i6Gw/KvnqPwQl
evH+teo/4clQ1Yt06j8Pr/X9qjTqP9gfZe479uk/gQYkjSK56T/BemFXRn3pP0d6G8KRQuk/T3Ex
vfEI6T+oCuZPVdDoPwLfukitmOg/rLw3/Oth6D9uz1YPBSzoP8viIEvt9uc/WGicd5rC5z/VsKA8
A4/nP1bYcAcfXOc/Em0/9OUp5z/ueuq6UPjmP4laY55Yx+Y/KjtRXveW5j8j45IqJ2fmPxgMVZji
N+Y/ZSaAmCQJ5j9q/0pv6NrlP4lcyKwpreU/j41MJuR/5T9Gno3wE1PlP9VsZVq1JuU/Z7Yg6MT6
5D/ATklPP8/kP3hS3HIhpOQ/ElDfX2h55D95NklKEU/kP+NfNYoZJeQ/gltYmX774z+jMa8QPtLj
Pw7NYqZVqeM/1QDaK8OA4z/pUPWLhFjjPzU6cMmXMOM/7zhk/foI4z/uO+pVrOHiP0qV1xSquuI/
Fc2TjvKT4j/tBAUphG3iP4TbkFpdR+I/8vcvqXwh4j8glpKp4PvhP2mZVP6H1uE/EdE/V3Gx4T9Q
PJtwm4zhP9o5hhIFaOE/nKleEK1D4T84HzFIkh/hPxNZMqKz++A/oEJBEBDY4D+u2XCNprTgP4Fd
mR12keA/NjzwzH1u4D8uP6avvEvgPyqCi+ExKeA/xMq4hdwG4D+hvXuMd8nfP8oAqaedhd8/83ov
yylC3z+Vj35xGv/eP1QfvSBuvN4/xcNOaiN63j+Fm1/qODjePwk6dket9t0/sVYLMn+13T8z3iZk
rXTdP4AQAqE2NN0/bVuutBn03D9IqMBzVbTcP8fXALvodNw/uCwdb9I13D8XamF8EffbP5Ftcdak
uNs/GxMHeIt62z/KMbNixDzbP1KFoZ5O/9o/nlpfOinC2j+A2KRKU4XaP03AIOrLSNo/PoRGOZIM
2j/fkx5epdDZP8bAGIQEldk/k5/g265Z2T8XyzObox7ZPxXxufzh49g/iJHeP2mp2D+2WqyoOG/Y
P9kNqn9PNdg/Edm4Ea371z+wFPSvUMLXP+tSkq85idc/7bHHaWdQ1z9MYak72RfXP6pMEoaO39Y/
Id6IrYan1j/iyyUawW/WPxXlezc9ONY/yNKAdPoA1j9EwnZD+MnVP77u1hk2k9U/AAE9cLNc1T/t
O1PCbybVP5Jtv45q8NQ/opwQV6O61D/Uaq2fGYXUP/4kw+/MT9Q/GXo10bwa1D/b0o7Q6OXTP65D
8XxQsdM/eRMIaPN80z+e0fkl0UjTPy/2Wk3pFNM/Zgchdzvh0j/dP5Y+x63SPx6xTUGMetI/id4X
H4pH0j+ezPd5wBTSPxaBGPYu4tE/UPDCOdWv0T/oVFTtsn3RP2fuNLvHS9E/IyTPTxMa0T/ECYdZ
lejQP9pCsohNt9A/NkOQjzuG0D/Z6UIiX1XQP350x/a3JNA/xZPfiYvozz81MriMEIjPP9KY6Wz+
J88/RJzJpFTIzj/dPCiyEmnOP4RxRRY4Cs4/CpDHVcSrzT9PUbL4tk3NP8xvXooP8Mw/U99xmc2S
zD9Hndi38DXMP6EYvnp42cs/qjGHemR9yz860cxStCHLPwcYV6Jnxso/fiYZC35ryj89fi0y9xDK
P1r+0r/Stsk/J3xqXxBdyT9p+nS/rwPJP1uBkpGwqsg/OJqBihJSyD91cR9i1fnHPyOjaNP4occ/
prV6nHxKxz8WR5Z+YPPGP1zyIT6knMY/nPGtokdGxj/5g/h2SvDFP2wd84ismsU/NWjIqW1FxT/B
H+OtjfDEPy3O9WwMnMQ/1XUDwulHxD+uMWmLJfTDP+7X6Kq/oMM/iKu0BbhNwz9lKnyEDvvCPxoH
ehPDqMI/t16DotVWwj80PBglRgXCP0J9dZIUtME/Yy2o5UBjwT+5bqIdyxLBP7oJUj2zwsA/hb+4
S/lywD8qfQZUnSPAPywia8s+qb8/HA5SKf8Lvz9LpZrye2++P4/odmG1070/5ZG9uas4vT8KdDtJ
X568PxUQC2jQBLw/M+LyeP9ruz8z9srp7NO6P4Zi6jOZPLo/GVud3ASmuT+roKR1MBC5P1Iov50c
e7g/1u8+Acrmtz92EapaOVO3P0xKaXNrwLY/GE2FJGEutj+kZnRXG521P64r+gabDLU/EyIbQOF8
tD+GmiYj7+2zP3A+2eTFX7M/ETGbz2bSsj+RDd1E00WyP32Jl74MurE/nRfy0BQvsT8llhUs7aSw
P5fkMJ6XG7A/NW5sKywmrz+BUbJH1RauP2Lxrf4uCa0/LCooDz79qz9wXziQB/OqP2NVKfmQ6qk/
q7VoKuDjqD8eJ693+96nP2TQmLPp26Y/1K3yPLLapT9dJxEOXdukP8vumM7y3aM/l/Q96Hzioj+8
ah+fBemhPxGAli6Y8aA/xKUY14H4nz91jILbGhKePxoJzYMZMJw/+OsiTp9Smj8KwQC20XmYP4K/
C/TapZY/ZLD78urWlD8TXquNOA2TPxIwYDQDSZE/Sd1yTyoVjz+sj08njaSLP3ikjQ0EQYg/4M8a
QpbrhD+SL5UpkqWBPzdo7Phg4Xw/XbgM2aiedj/9sbADH4pwP2ewwUOfX2U/D/e5tgWmVD952RV4
O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFov
rJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88
ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mum
PHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k8
6h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6
n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8SLeADp8erTwQH+QpnWetPMO4
IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88rteH
nm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE
fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqn
ibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRb
sjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiez
PKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8
dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzc
EbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSF
DsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3
BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3
Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NM
z7c8595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQ
uDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5
PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8
W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8NrOL4bTlujwa
ocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLA
LmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2
vY+qvDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0
c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8A
cr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9m
vzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTA
PMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8
MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz
7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM
BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uW
MdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5w
dazDPKYEF7Mnz8M8dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51z
t8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kW
xjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8jM7W9C3Uxzw08ikFAznI
PBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPGrvJYA98w4A
AAAAAAAAAACoxvuYvggMAEKBvfpUow0A6u7BfvZRDgB+99PpVbIOALnKfoFL7w4AqkT6CkcZDwAY
y/9h7TcPAFwlYZVGTw8AlqMb5KVhDwCkllN1enAPAJpEKOyyfA8A01djDPGGDwDeJYNXpo8PANrQ
Tccklw8ACfXbB6mdDwB0+oH1YKMPAPhLW95vqA8A3FTTYPGsDwAPuRhn+7APAMZ0U42ftA8Ad/5m
I+y3DwAO5aHp7LoPAO0LBJ2rvQ8AV2z/YDDADwBIojcQgsIPANFb4nqmxA8AMe56l6LGDwCkliip
esgPAIXeS14yyg8AGiMC6czLDwDEOfgSTc0PAJnsj021zg8AMMkdvwfQDwDmxNZNRtEPAFD04qhy
0g8AHsnwT47TDwB4tJCZmtQPAFMPkriY1Q8A7JmOwInWDwAy6MipbtcPAOgIe1RI2A8AjCytixfZ
DwDSracH3dkPAIxeEHCZ2g8AIC7AXU3bDwDQ/Ftc+dsPAH2aueud3A8AnXIYgTvdDwCQLzSI0t0P
AGSfNmRj3g8ATlGNcO7eDwAutKYBdN8PAEDtmWX03w8A8iS85G/gDwBYoiXC5uAPAEy4KDxZ4Q8A
mT+8jMfhDwCqHNvpMeIPAJEb2oWY4g8AhkG1j/viDwBKjVUzW+MPACoA0Jm34w8Af62e6RDkDwA0
d9RGZ+QPAFwJTNO65A8AJJXSrgvlDwB4vE73WeUPABIS5Mil5Q8AiYYTPu/lDwB4ENlvNuYPAHjV
xnV75g8AqhEeZr7mDwDy9OVV/+YPAAKnAFk+5w8AOZ4+gnvnDwCicHDjtucPAENCd43w5w8AjPBT
kCjoDwA6FzX7XugPAGQIhNyT6A8AvM7wQcfoDwD2Tn04+egPAB2bh8wp6Q8A6ojTCVnpDwCimpP7
hukPAGZIcayz6Q8A1baUJt/pDwB85qtzCeoPAKRm8Zwy6g8ALJUyq1rqDwAadNWmgeoPAPAc3pen
6g8AINnzhczqDwA85mV48OoPABPsL3YT6w8ASir+hTXrDwC0YjGuVusPAPqE4vR26w8AFCDmX5br
DwB8nc/0tOsPANBJ9LjS6w8APi5use/rDwDovR7jC+wPABVasVIn7A8A06+dBELsDwCW8Sn9W+wP
APTubEB17A8AtAxQ0o3sDwASH5G2pewPAP4nxPC87A8AFftUhNPsDwCzyIh06ewPALeRf8T+7A8A
KIU1dxPtDwADSYSPJ+0PAEwvJBA77Q8Ablit+03tDwDdw5hUYO0PAOhPQR1y7Q8AgqnkV4PtDwDI
LKQGlO0PAAS3hSuk7Q8AtGp0yLPtDwBSZkHfwu0PAFJupHHR7Q8A04o8gd/tDwCAmZAP7e0PABTU
Dx767Q8AxEsSrgbuDwAGWtnAEu4PAOAGkFce7g8AJGVLcynuDwC85AoVNO4PADybuD0+7g8A9IIp
7kfuDwCGsB0nUe4PAEF/QOlZ7g8ALrQoNWLuDwDxl1gLau4PAHoHPmxx7g8AgnsyWHjuDwC6BnvP
fu4PALJKSNKE7g8AQ2O2YIruDwBRyMx6j+4PANolfiCU7g8A6imoUZjuDwBcSBMOnO4PAPRzclWf
7g8ArsxiJ6LuDwCsQmuDpO4PAHEt/Gim7g8A+tZu16fuDwAK+gTOqO4PADsz6Eup7g8AEGQpUKnu
DwBeB8DZqO4PAFR2ieen7g8AJB1IeKbuDwCDnqKKpO4PANrkIh2i7g8AJCA1Lp/uDwAurya8m+4P
AOTyJMWX7g8AOgo8R5PuDwAWdVVAju4PAHqcNq6I7g8A/T1/joLuDwCIuKfee+4PAP83/5t07g8A
Xr2pw2zuDwB+AJ5SZO4PAIgoo0Vb7g8AtldOmVHuDwDPBgBKR+4PAFAs4VM87g8A2CrgsjDuDwAF
gq1iJO4PAFo8uF4X7g8ARxQqognuDwDMSeMn++0PAGwhdurr7Q8AfgQi5NvtDwDTOc4Oy+0PAPQs
BGS57Q8AyTjp3KbtDwCN6Tdyk+0PADaoOBx/7Q8AK8C50mntDwAArgaNU+0PACKk3kE87Q8A2C9q
5yPtDwBE5i9zCu0PADT+B9rv7A8AuLcOENTsDwC0bpUIt+wPAMEwEraY7A8AeKkNCnnsDwD+MQ/1
V+wPAGLJhmY17A8ANbO0TBHsDwDQb46U6+sPAJK2oCnE6w8A3Azu9ZrrDwBChcnhb+sPAJ4frdNC
6w8ASy0LsBPrDwDpAhpZ4uoPAFcima6u6g8AJuOOjXjqDwDlc/3PP+oPAPbZjUwE6g8AO1Yv1sXp
DwCkR6k7hOkPAChHHUc/6Q8A1sV2vfboDwDm6MRdqugPAOqxeuBZ6A8AQKmQ9gToDwDAM4JIq+cP
AKVqH3VM5w8AAqIqEOjmDwDYq7agfeYPAH4wOJ8M5g8AQvc4c5TlDwCAcpdwFOUPAFj0NtSL5A8A
Nx79v/njDwCcse41XeMPAP7kLxK14g8AV1WZAwDiDwAUg3iCPOEPALBn7sRo4A8AqnErsILfDwCq
/n7Fh94PAP07xgl13Q8AE78p5UbcDwCCAi74+NoPAHW6suGF2Q8ABM9I7+bXDwALZb2tE9YPABLw
4kkB1A8ArMe0p6HRDwCeH3YE4s4PALIRXtioyw8AIi3NbtLHDwDtIh4vK8MPADq4wIFlvQ8ANFQA
xAa2DwB0KCpYQKwPAJhFAR6Xng8A/B2kSPqJDwAsMPD3xWYPAEocM0taGg8A
"""
)
_FI = unpack("<256d", TABLES[:2048])
_WI = unpack("<256d", TABLES[2048:4096])
_KI = unpack("<256Q", TABLES[4096:])

R = 3.6541528853610087963519472518  # where the tail of layer 0 begins
_INV_R = 0.27366123732975827203338247596  # 1 / R, as numpy writes it

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's
_POOL_MULT = 0x931E8875


def _hash_constants(init: int, mult: int, count: int) -> List[Tuple[int, int]]:
    """(constant before, constant after) the multiplication of each of count hashes.

    A SeedSequence hash xors its word with the running constant, multiplies
    the constant by mult and then the word by the new constant, so the
    constants do not depend on the words."""
    pairs = []
    for _ in range(count):
        after = init * mult & _M32
        pairs.append((init, after))
        init = after
    return pairs


# The hashes of the pool, computed once for any entropy of up to four
# words: four fill the pool, then twelve mix each pool word into every
# other one, as (destination, source, constants) steps.  Then 8 hashes of
# the pool words in turn give the generator's state.
_FILL_HASH = _hash_constants(0x43B0D7E5, _POOL_MULT, 16)
_MIX = [
    (dst, src, *pair)
    for (dst, src), pair in zip([(dst, src) for src in range(4) for dst in range(4) if dst != src], _FILL_HASH[4:])
]
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _mix_steps(count: int) -> list:
    """The mixing steps for an entropy of count >= 4 words: ``_MIX``, then
    each word from the fifth on (source = its index) mixed into every pool word."""
    if count == 4:
        return _MIX
    extra = [(dst, src) for src in range(4, count) for dst in range(4)]
    constants = _hash_constants(_FILL_HASH[-1][1], _POOL_MULT, len(extra))
    return _MIX + [(dst, src, *pair) for (dst, src), pair in zip(extra, constants)]


def _words(entropy: Sequence[int]) -> List[int]:
    """The 32-bit words of each integer, least significant first (0 is one word)."""
    if any(n < 0 for n in entropy):
        raise ValueError("entropy must be nonnegative")
    return [n >> shift & _M32 for n in entropy for shift in range(0, max(n.bit_length(), 1), 32)]


def _seed(entropy: Sequence[int]) -> Tuple[int, int]:
    """PCG64's (state, increment) after seeding from SeedSequence(entropy)."""
    words = _words(entropy)
    words += [0] * (4 - len(words))  # a short entropy fills the pool with hashed zeros
    cells = []  # the pool, then the words from the fifth on
    for word, (before, after) in zip(words, _FILL_HASH[:4]):
        value = (word ^ before) * after & _M32
        cells.append(value ^ value >> 16)
    cells += words[4:]
    for dst, src, before, after in _mix_steps(len(words)):
        value = (cells[src] ^ before) * after & _M32
        value = (0xCA01F9DD * cells[dst] - 0x4973F715 * (value ^ value >> 16)) & _M32
        cells[dst] = value ^ value >> 16
    out = []
    for i, (before, after) in enumerate(_STATE_HASH):
        value = (cells[i & 3] ^ before) * after & _M32
        out.append(value ^ value >> 16)
    # out is read as four little-endian 64-bit words, the state's high and
    # low halves, then the increment's
    high, low, inc_high, inc_low = (out[i + 1] << 32 | out[i] for i in range(0, 8, 2))
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _M128
    state = (inc + (high << 64 | low)) & _M128  # one step from state 0 is inc
    return (state * _MULTIPLIER + inc) & _M128, inc


def _double(state: int, inc: int) -> Tuple[int, float]:
    """(the next state, a uniform double in [0, 1) from the top 53 bits of its output)."""
    state = (state * _MULTIPLIER + inc) & _M128
    rot = state >> 122
    word = ((state >> 64) ^ state) & _M64
    return state, (((word >> rot | word << (64 - rot)) & _M64) >> 11) * (1.0 / 9007199254740992.0)


def standard_normal(entropy: Sequence[int], count: int) -> List[float]:
    """The floats of ``numpy.random.default_rng(entropy).standard_normal(count)``.

    Each step of PCG64 is written out: its state times the multiplier plus
    the increment, then XSL-RR, as ``_double`` does for the rare draws that
    fall outside a layer's box."""
    state, inc = _seed(entropy)
    out: List[float] = []
    while len(out) < count:
        state = (state * _MULTIPLIER + inc) & _M128
        rot = state >> 122
        word = ((state >> 64) ^ state) & _M64
        r = (word >> rot | word << (64 - rot)) & _M64
        idx = r & 0xFF
        rabs = r >> 9 & 0x000FFFFFFFFFFFFF
        x = rabs * _WI[idx]
        if r >> 8 & 1:
            x = -x
        if rabs < _KI[idx]:
            out.append(x)
        elif idx == 0:  # the tail, from 1 - U so that log1p never sees -1
            while True:
                state, u = _double(state, inc)
                xx = -_INV_R * math.log1p(-u)
                state, u = _double(state, inc)
                yy = -math.log1p(-u)
                if yy + yy > xx * xx:
                    out.append(-(R + xx) if rabs >> 8 & 1 else R + xx)
                    break
        else:  # the wedge
            state, u = _double(state, inc)
            if (_FI[idx - 1] - _FI[idx]) * u + _FI[idx] < math.exp(-0.5 * x * x):
                out.append(x)
    return out
