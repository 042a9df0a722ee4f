"""Gauss lines on [-1, 1], as ``scipy.special`` 1.17.1 writes them.

``LINES[alpha, n]`` holds the n nodes, then the n weights, of the n-point
Gauss rule for the weight (1 - x)**alpha on [-1, 1], each as ``float.hex``:
``roots_legendre(n)`` for alpha 0 and ``roots_jacobi(n, alpha, 0)`` for
alpha 1 and 2.  n runs from 1 to ``(max(MAX_ORDER.values()) + 2) // 2``
of ``dpgfem.quadrature``, which parses the table once at import.

Generated by ``tests/oracles.py::gauss_lines``; do not edit.  After a
change to ``MAX_ORDER``, regenerate it from the repository root with

    PYTHONPATH=src python3 tests/oracles.py
"""

LINES = {
    (0, 1): (
        "0x0.0p+0",
        "0x1.0000000000000p+1"),
    (0, 2): (
        "-0x1.279a74590331cp-1 0x1.279a74590331cp-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0"),
    (0, 3): (
        "-0x1.8c97ef43f7248p-1 0x0.0p+0 0x1.8c97ef43f7248p-1",
        "0x1.1c71c71c71c74p-1 0x1.c71c71c71c717p-1 0x1.1c71c71c71c74p-1"),
    (0, 4): (
        "-0x1.b8e6dbcf63985p-1 -0x1.5c23fd9dd3dfdp-2 0x1.5c23fd9dd3dfdp-2 "
        "0x1.b8e6dbcf63985p-1",
        "0x1.64340f7e7b66ap-2 0x1.4de5f840c24cbp-1 0x1.4de5f840c24cbp-1 "
        "0x1.64340f7e7b66ap-2"),
    (0, 5): (
        "-0x1.cff6ce0533a69p-1 -0x1.13b23fd99b705p-1 0x0.0p+0 "
        "0x1.13b23fd99b705p-1 0x1.cff6ce0533a69p-1",
        "0x1.e539ec36e0388p-3 0x1.ea1da25ae415cp-2 0x1.23456789abce0p-1 "
        "0x1.ea1da25ae415cp-2 0x1.e539ec36e0388p-3"),
    (0, 6): (
        "-0x1.dd6ca4e80a01ep-1 -0x1.528a09655c95ep-1 -0x1.e8b12d03675c6p-3 "
        "0x1.e8b12d03675c6p-3 0x1.528a09655c95ep-1 0x1.dd6ca4e80a01ep-1",
        "0x1.5edf601e2dbf1p-3 0x1.716b7b5794c1bp-2 0x1.df24d499545ebp-2 "
        "0x1.df24d499545ebp-2 0x1.716b7b5794c1bp-2 0x1.5edf601e2dbf1p-3"),
    (0, 7): (
        "-0x1.e5f178e7c6228p-1 -0x1.7ba9f9be3a1d6p-1 -0x1.9f95df119fd62p-2 "
        "0x0.0p+0 0x1.9f95df119fd62p-2 0x1.7ba9f9be3a1d6p-1 "
        "0x1.e5f178e7c6228p-1",
        "0x1.092f69f826d5fp-3 0x1.1e6b1713d8643p-2 0x1.86fe74ee32b3ap-2 "
        "0x1.abfd7e03c2fa1p-2 0x1.86fe74ee32b3ap-2 0x1.1e6b1713d8643p-2 "
        "0x1.092f69f826d5fp-3"),
    (0, 8): (
        "-0x1.ebab1cb0acc67p-1 -0x1.97e4ab249f41ep-1 -0x1.0d129583284b4p-1 "
        "-0x1.77ac94f3c7346p-3 0x1.77ac94f3c7346p-3 0x1.0d129583284b4p-1 "
        "0x1.97e4ab249f41ep-1 0x1.ebab1cb0acc67p-1",
        "0x1.9ea1d04ca0346p-4 0x1.c76fb531d2b9fp-3 0x1.413c50a25561bp-2 "
        "0x1.736360b199344p-2 0x1.736360b199344p-2 0x1.413c50a25561bp-2 "
        "0x1.c76fb531d2b9fp-3 0x1.9ea1d04ca0346p-4"),
    (0, 9): (
        "-0x1.efb2b2ebf2106p-1 -0x1.ac0c44f0d0298p-1 -0x1.3a0bd2077fd8cp-1 "
        "-0x1.4c0916e48aa66p-2 0x0.0p+0 0x1.4c0916e48aa66p-2 "
        "0x1.3a0bd2077fd8cp-1 0x1.ac0c44f0d0298p-1 0x1.efb2b2ebf2106p-1",
        "0x1.4ce65f803eee4p-4 0x1.71f7a9b222bf1p-3 0x1.0add87c827507p-2 "
        "0x1.3fd7e9838d510p-2 0x1.522a43f654867p-2 0x1.3fd7e9838d510p-2 "
        "0x1.0add87c827507p-2 0x1.71f7a9b222bf1p-3 0x1.4ce65f803eee4p-4"),
    (0, 10): (
        "-0x1.f2a3e062af2d8p-1 -0x1.bae995e9cb2f2p-1 -0x1.5bdb9228de198p-1 "
        "-0x1.bbcc009016adcp-2 -0x1.30e507891e278p-3 0x1.30e507891e278p-3 "
        "0x1.bbcc009016adcp-2 0x1.5bdb9228de198p-1 0x1.bae995e9cb2f2p-1 "
        "0x1.f2a3e062af2d8p-1",
        "0x1.1115f8b62dbd7p-4 0x1.32138c878efe3p-3 0x1.c0b059d00bc38p-3 "
        "0x1.13baa7a559c05p-2 0x1.2e9de7014d6f7p-2 0x1.2e9de7014d6f7p-2 "
        "0x1.13baa7a559c05p-2 0x1.c0b059d00bc38p-3 0x1.32138c878efe3p-3 "
        "0x1.1115f8b62dbd7p-4"),
    (0, 11): (
        "-0x1.f4da62fd7e9b5p-1 -0x1.c62d11af04753p-1 -0x1.75d67bd21944ap-1 "
        "-0x1.09c6f7c4d8ce2p-1 -0x1.14031efeb42c1p-2 0x0.0p+0 "
        "0x1.14031efeb42c1p-2 0x1.09c6f7c4d8ce2p-1 0x1.75d67bd21944ap-1 "
        "0x1.c62d11af04753p-1 0x1.f4da62fd7e9b5p-1",
        "0x1.c8097265bb982p-5 0x1.013047def88b3p-3 0x1.7d85b8dbff1a2p-3 "
        "0x1.dd94b1446e05bp-3 0x1.0d1ca26fa590ep-2 0x1.1779ac87e04d5p-2 "
        "0x1.0d1ca26fa590ep-2 0x1.dd94b1446e05bp-3 0x1.7d85b8dbff1a2p-3 "
        "0x1.013047def88b3p-3 0x1.c8097265bb982p-5"),
    (0, 12): (
        "-0x1.f68f1d8e42e81p-1 -0x1.cee874ffb88b4p-1 -0x1.8a30aeed88f36p-1 "
        "-0x1.2cb4f05c077f9p-1 -0x1.78a8d20a8b19cp-2 -0x1.007a5f8f630e6p-3 "
        "0x1.007a5f8f630e6p-3 0x1.78a8d20a8b19cp-2 0x1.2cb4f05c077f9p-1 "
        "0x1.8a30aeed88f36p-1 0x1.cee874ffb88b4p-1 0x1.f68f1d8e42e81p-1",
        "0x1.8275d9dea6e53p-5 0x1.b60602bce6155p-4 0x1.47d7258f22d8ap-3 "
        "0x1.a0163e6b1ab6bp-3 0x1.de3155c256ab1p-3 0x1.fe40ce6d4f01fp-3 "
        "0x1.fe40ce6d4f01fp-3 0x1.de3155c256ab1p-3 0x1.a0163e6b1ab6bp-3 "
        "0x1.47d7258f22d8ap-3 0x1.b60602bce6155p-4 0x1.8275d9dea6e53p-5"),
    (0, 13): (
        "-0x1.f7e6d7629661cp-1 -0x1.d5cf75170c9dep-1 -0x1.9a687189c7850p-1 "
        "-0x1.48e2033b01c62p-1 -0x1.cb41af08c747bp-2 -0x1.d7fa8790f2c4ap-3 "
        "0x0.0p+0 0x1.d7fa8790f2c4ap-3 0x1.cb41af08c747bp-2 "
        "0x1.48e2033b01c62p-1 0x1.9a687189c7850p-1 0x1.d5cf75170c9dep-1 "
        "0x1.f7e6d7629661cp-1",
        "0x1.4ba51c8f4cee5p-5 0x1.795464d0fbf14p-4 0x1.1c69b70565ce2p-3 "
        "0x1.6cd7ccca4a8ccp-3 0x1.a99b75be0a126p-3 0x1.cf6d8e56e981ep-3 "
        "0x1.dc43fd1e15b92p-3 0x1.cf6d8e56e981ep-3 0x1.a99b75be0a126p-3 "
        "0x1.6cd7ccca4a8ccp-3 0x1.1c69b70565ce2p-3 0x1.795464d0fbf14p-4 "
        "0x1.4ba51c8f4cee5p-5"),
    (0, 14): (
        "-0x1.f8fa30fddab0ap-1 -0x1.db5bd12b99e9fp-1 -0x1.a786ee46dd9c4p-1 "
        "-0x1.5fe4db09e0c89p-1 -0x1.07ceab54ef096p-1 -0x1.46c564912d702p-2 "
        "-0x1.ba97d36de76adp-4 0x1.ba97d36de76adp-4 0x1.46c564912d702p-2 "
        "0x1.07ceab54ef096p-1 0x1.5fe4db09e0c89p-1 0x1.a786ee46dd9c4p-1 "
        "0x1.db5bd12b99e9fp-1 0x1.f8fa30fddab0ap-1",
        "0x1.1fb2d8b27f5eap-5 0x1.4853d8adc700cp-4 0x1.f1bd74ef611b0p-4 "
        "0x1.41f3bbee2d2f7p-3 0x1.7bfb8e2a8f57dp-3 0x1.a43f1796fab06p-3 "
        "0x1.b8dc415514e2cp-3 0x1.b8dc415514e2cp-3 0x1.a43f1796fab06p-3 "
        "0x1.7bfb8e2a8f57dp-3 0x1.41f3bbee2d2f7p-3 0x1.f1bd74ef611b0p-4 "
        "0x1.4853d8adc700cp-4 0x1.1fb2d8b27f5eap-5"),
    (0, 15): (
        "-0x1.f9da27c32e6d0p-1 -0x1.dfe24c4f8b448p-1 -0x1.b248221fffd63p-1 "
        "-0x1.72e6e181ab3c4p-1 -0x1.245676f08f3a4p-1 -0x1.939c69257d6b6p-2 "
        "-0x1.9c0ba62ef04b6p-3 0x0.0p+0 0x1.9c0ba62ef04b6p-3 "
        "0x1.939c69257d6b6p-2 0x1.245676f08f3a4p-1 0x1.72e6e181ab3c4p-1 "
        "0x1.b248221fffd63p-1 0x1.dfe24c4f8b448p-1 0x1.f9da27c32e6d0p-1",
        "0x1.f7dc7227a2a1ap-6 0x1.2038260b5cfe0p-4 0x1.b6ec9635f1139p-4 "
        "0x1.1dd73b4963161p-3 0x1.5484f30a86ed8p-3 0x1.7d41fa76dc268p-3 "
        "0x1.96633f1fd02d0p-3 0x1.9ee1575f9c983p-3 0x1.96633f1fd02d0p-3 "
        "0x1.7d41fa76dc268p-3 0x1.5484f30a86ed8p-3 0x1.1dd73b4963161p-3 "
        "0x1.b6ec9635f1139p-4 0x1.2038260b5cfe0p-4 0x1.f7dc7227a2a1ap-6"),
    (0, 16): (
        "-0x1.fa92c264d787ep-1 -0x1.e39f56616f9b0p-1 -0x1.bb3403514e483p-1 "
        "-0x1.82c45dda4726bp-1 -0x1.3c5a466d5e8b8p-1 -0x1.d50259a43a773p-2 "
        "-0x1.205cae642337cp-2 -0x1.852bd6676a9fap-4 0x1.852bd6676a9fap-4 "
        "0x1.205cae642337cp-2 0x1.d50259a43a773p-2 0x1.3c5a466d5e8b8p-1 "
        "0x1.82c45dda4726bp-1 0x1.bb3403514e483p-1 0x1.e39f56616f9b0p-1 "
        "0x1.fa92c264d787ep-1",
        "0x1.bcddab4b7c4bcp-6 0x1.fdfb1a2c12637p-5 0x1.85c4ee79cc236p-4 "
        "0x1.fe7af2bad3858p-4 0x1.325f61bca3cb2p-3 0x1.5a6ebbb5a75edp-3 "
        "0x1.75f8c77e0c004p-3 0x1.83feae80e4deep-3 0x1.83feae80e4deep-3 "
        "0x1.75f8c77e0c004p-3 0x1.5a6ebbb5a75edp-3 0x1.325f61bca3cb2p-3 "
        "0x1.fe7af2bad3858p-4 0x1.85c4ee79cc236p-4 0x1.fdfb1a2c12637p-5 "
        "0x1.bcddab4b7c4bcp-6"),
    (0, 17): (
        "-0x1.fb2cb56d63e14p-1 -0x1.e6bef126358d5p-1 -0x1.c2aeb4d3d50dep-1 "
        "-0x1.90229a80349f6p-1 -0x1.50ba4630b7586p-1 -0x1.067f5fc3829bap-1 "
        "-0x1.67a94ca56739fp-2 -0x1.6d891d5306220p-3 0x0.0p+0 "
        "0x1.6d891d5306220p-3 0x1.67a94ca56739fp-2 0x1.067f5fc3829bap-1 "
        "0x1.50ba4630b7586p-1 0x1.90229a80349f6p-1 0x1.c2aeb4d3d50dep-1 "
        "0x1.e6bef126358d5p-1 0x1.fb2cb56d63e14p-1",
        "0x1.8ba552c4c18c1p-6 0x1.c653101d35de5p-5 0x1.5c4edd40005e5p-4 "
        "0x1.ca46b78a575efp-4 0x1.14c260589486dp-3 0x1.3b7c580f4c747p-3 "
        "0x1.581288e2d8abfp-3 0x1.6999b529f4c61p-3 0x1.6f81a18c8015cp-3 "
        "0x1.6999b529f4c61p-3 0x1.581288e2d8abfp-3 0x1.3b7c580f4c747p-3 "
        "0x1.14c260589486dp-3 0x1.ca46b78a575efp-4 0x1.5c4edd40005e5p-4 "
        "0x1.c653101d35de5p-5 0x1.8ba552c4c18c1p-6"),
    (0, 18): (
        "-0x1.fbae6e0470f67p-1 -0x1.e961c1b84910cp-1 -0x1.c90330c3df334p-1 "
        "-0x1.9b7f3764d70b6p-1 -0x1.6224cdda05b6ep-1 -0x1.1e9a48496f47ep-1 "
        "-0x1.a5a218b24aacdp-2 -0x1.01ee7676a1ae5p-2 -0x1.5b3d0b4884002p-4 "
        "0x1.5b3d0b4884002p-4 0x1.01ee7676a1ae5p-2 0x1.a5a218b24aacdp-2 "
        "0x1.1e9a48496f47ep-1 0x1.6224cdda05b6ep-1 0x1.9b7f3764d70b6p-1 "
        "0x1.c90330c3df334p-1 0x1.e961c1b84910cp-1 0x1.fbae6e0470f67p-1",
        "0x1.622821caa1f6bp-6 0x1.9742f7347515fp-5 0x1.390a2fc0485b0p-4 "
        "0x1.9d7567a3a574cp-4 0x1.f5fc72cc7c2f3p-4 0x1.2009647765819p-3 "
        "0x1.3ccb51a6e0a74p-3 0x1.507030698595ap-3 0x1.5a6752598dbdcp-3 "
        "0x1.5a6752598dbdcp-3 0x1.507030698595ap-3 0x1.3ccb51a6e0a74p-3 "
        "0x1.2009647765819p-3 0x1.f5fc72cc7c2f3p-4 0x1.9d7567a3a574cp-4 "
        "0x1.390a2fc0485b0p-4 0x1.9742f7347515fp-5 0x1.622821caa1f6bp-6"),
    (0, 19): (
        "-0x1.fc1cbff545011p-1 -0x1.eba067258b1aap-1 -0x1.ce6a735a6e10ap-1 "
        "-0x1.a53adaff88a74p-1 -0x1.71227a925a98cp-1 -0x1.337aac969398fp-1 "
        "-0x1.dbb86eb38d8b2p-2 -0x1.44296121b9d20p-2 -0x1.486a1d153eb62p-3 "
        "0x0.0p+0 0x1.486a1d153eb62p-3 0x1.44296121b9d20p-2 "
        "0x1.dbb86eb38d8b2p-2 0x1.337aac969398fp-1 0x1.71227a925a98cp-1 "
        "0x1.a53adaff88a74p-1 0x1.ce6a735a6e10ap-1 0x1.eba067258b1aap-1 "
        "0x1.fc1cbff545011p-1",
        "0x1.3edca7fdf9abap-6 0x1.6f1e3ecb55a86p-5 0x1.1ace735068371p-4 "
        "0x1.76be3dac75c71p-4 0x1.c8fa1b5f341c8p-4 0x1.07b02852b1e1fp-3 "
        "0x1.240efb90355a8p-3 0x1.38dd6714e5d68p-3 0x1.459174fbae091p-3 "
        "0x1.49d6ea57ce6e2p-3 0x1.459174fbae091p-3 0x1.38dd6714e5d68p-3 "
        "0x1.240efb90355a8p-3 0x1.07b02852b1e1fp-3 0x1.c8fa1b5f341c8p-4 "
        "0x1.76be3dac75c71p-4 0x1.1ace735068371p-4 0x1.6f1e3ecb55a86p-5 "
        "0x1.3edca7fdf9abap-6"),
    (0, 20): (
        "-0x1.fc7b5a0c71ce0p-1 -0x1.ed8dba7bd769ep-1 -0x1.d31064173fd92p-1 "
        "-0x1.ada0bd5efd6e8p-1 -0x1.7e1f37346a54ep-1 -0x1.45a8d3fa710dap-1 "
        "-0x1.05905c13f7ff6p-1 -0x1.7eaccf15652c4p-2 -0x1.d281636928bbfp-3 "
        "-0x1.3973df98b86adp-4 0x1.3973df98b86adp-4 0x1.d281636928bbfp-3 "
        "0x1.7eaccf15652c4p-2 0x1.05905c13f7ff6p-1 0x1.45a8d3fa710dap-1 "
        "0x1.7e1f37346a54ep-1 0x1.ada0bd5efd6e8p-1 0x1.d31064173fd92p-1 "
        "0x1.ed8dba7bd769ep-1 0x1.fc7b5a0c71ce0p-1",
        "0x1.209680274e953p-6 0x1.4c9b5ea53b6cdp-5 0x1.00b467df7e488p-4 "
        "0x1.5519fe196e227p-4 0x1.a1817a317a814p-4 0x1.e41ff31573b48p-4 "
        "0x1.0db2c5db26df8p-3 0x1.230348f34a52bp-3 0x1.31819b52c598dp-3 "
        "0x1.38d6c490a3367p-3 0x1.38d6c490a3367p-3 0x1.31819b52c598dp-3 "
        "0x1.230348f34a52bp-3 0x1.0db2c5db26df8p-3 0x1.e41ff31573b48p-4 "
        "0x1.a1817a317a814p-4 0x1.5519fe196e227p-4 0x1.00b467df7e488p-4 "
        "0x1.4c9b5ea53b6cdp-5 0x1.209680274e953p-6"),
    (0, 21): (
        "-0x1.fccd15a249840p-1 -0x1.ef385b2ee9590p-1 -0x1.d717428a7ea46p-1 "
        "-0x1.b4ec0afcfad08p-1 -0x1.8970f680228bap-1 -0x1.559337a3d7431p-1 "
        "-0x1.1a6dc8b7fc84cp-1 -0x1.b286bda26cccep-2 -0x1.26ef0f60de615p-2 "
        "-0x1.2a1c5559544eep-3 0x0.0p+0 0x1.2a1c5559544eep-3 "
        "0x1.26ef0f60de615p-2 0x1.b286bda26cccep-2 0x1.1a6dc8b7fc84cp-1 "
        "0x1.559337a3d7431p-1 0x1.8970f680228bap-1 0x1.b4ec0afcfad08p-1 "
        "0x1.d717428a7ea46p-1 0x1.ef385b2ee9590p-1 0x1.fccd15a249840p-1",
        "0x1.066d1fe28a8dep-6 0x1.2eb9b6d0ee21ap-5 0x1.d40b9315e4293p-5 "
        "0x1.37b4c0b417a6cp-4 0x1.7ebf946bcbbbfp-4 0x1.bda23c9d0e76fp-4 "
        "0x1.f3057fb937d82p-4 0x1.0ee3046da78f4p-3 0x1.1e7d484e009ddp-3 "
        "0x1.27fc6924e2f24p-3 0x1.2b2c95dcb446fp-3 0x1.27fc6924e2f24p-3 "
        "0x1.1e7d484e009ddp-3 0x1.0ee3046da78f4p-3 0x1.f3057fb937d82p-4 "
        "0x1.bda23c9d0e76fp-4 0x1.7ebf946bcbbbfp-4 0x1.37b4c0b417a6cp-4 "
        "0x1.d40b9315e4293p-5 0x1.2eb9b6d0ee21ap-5 0x1.066d1fe28a8dep-6"),
    (0, 22): (
        "-0x1.fd142e0e793b6p-1 -0x1.f0abc502b0754p-1 -0x1.da9a13fab3034p-1 "
        "-0x1.bb4bc9438c5d0p-1 -0x1.935cb971d6fa0p-1 -0x1.6393d5a5c02d8p-1 "
        "-0x1.2cdf33f5bda8ep-1 -0x1.e09ed1195bf36p-2 -0x1.5e246c803fe9ep-2 "
        "-0x1.a9b2ba361170cp-3 -0x1.1da6eda27aeddp-4 0x1.1da6eda27aeddp-4 "
        "0x1.a9b2ba361170cp-3 0x1.5e246c803fe9ep-2 0x1.e09ed1195bf36p-2 "
        "0x1.2cdf33f5bda8ep-1 0x1.6393d5a5c02d8p-1 0x1.935cb971d6fa0p-1 "
        "0x1.bb4bc9438c5d0p-1 0x1.da9a13fab3034p-1 0x1.f0abc502b0754p-1 "
        "0x1.fd142e0e793b6p-1",
        "0x1.df5484b4c079dp-7 0x1.14af1a376fcf0p-5 0x1.ac631288f2047p-5 "
        "0x1.1de2e6d4275e9p-4 0x1.60044e4116985p-4 0x1.9b4bdca70204ep-4 "
        "0x1.ce9218653fe99p-4 0x1.f8d77bf8e2ff3p-4 0x1.0ca4b1c94c0b1p-3 "
        "0x1.17a311af8b352p-3 0x1.1d3015fe92d12p-3 0x1.1d3015fe92d12p-3 "
        "0x1.17a311af8b352p-3 0x1.0ca4b1c94c0b1p-3 0x1.f8d77bf8e2ff3p-4 "
        "0x1.ce9218653fe99p-4 0x1.9b4bdca70204ep-4 0x1.60044e4116985p-4 "
        "0x1.1de2e6d4275e9p-4 0x1.ac631288f2047p-5 0x1.14af1a376fcf0p-5 "
        "0x1.df5484b4c079dp-7"),
    (0, 23): (
        "-0x1.fd526801c19d8p-1 -0x1.f1f11637b4a5ap-1 -0x1.ddae62e41008ap-1 "
        "-0x1.c0e5af62ecc2ap-1 -0x1.9c1a5523c3e82p-1 -0x1.6ff461d719dbfp-1 "
        "-0x1.3d3d81715df19p-1 -0x1.04dd60b1397bap-1 -0x1.8fab1347bd640p-2 "
        "-0x1.0e79957de5b46p-2 -0x1.10e8f432a555cp-3 0x0.0p+0 "
        "0x1.10e8f432a555cp-3 0x1.0e79957de5b46p-2 0x1.8fab1347bd640p-2 "
        "0x1.04dd60b1397bap-1 0x1.3d3d81715df19p-1 0x1.6ff461d719dbfp-1 "
        "0x1.9c1a5523c3e82p-1 0x1.c0e5af62ecc2ap-1 0x1.ddae62e41008ap-1 "
        "0x1.f1f11637b4a5ap-1 0x1.fd526801c19d8p-1",
        "0x1.b77ad4f01ad31p-7 0x1.fbb51dee55ddap-6 0x1.89864ca1f3a15p-5 "
        "0x1.07189354ae1cbp-4 0x1.44bc95ec2fff5p-4 0x1.7c953e082b924p-4 "
        "0x1.ada35467301bap-4 0x1.d706b78e7b6e9p-4 0x1.f802510e67033p-4 "
        "0x1.07ffb9288545bp-3 0x1.0f4841f9a3179p-3 0x1.11b97d0400671p-3 "
        "0x1.0f4841f9a3179p-3 0x1.07ffb9288545bp-3 0x1.f802510e67033p-4 "
        "0x1.d706b78e7b6e9p-4 0x1.ada35467301bap-4 0x1.7c953e082b924p-4 "
        "0x1.44bc95ec2fff5p-4 0x1.07189354ae1cbp-4 0x1.89864ca1f3a15p-5 "
        "0x1.fbb51dee55ddap-6 0x1.b77ad4f01ad31p-7"),
    (0, 24): (
        "-0x1.fd892de691982p-1 -0x1.f30f9f0cbf876p-1 -0x1.e06585a70aa4dp-1 "
        "-0x1.c5d841864d0f5p-1 -0x1.a3d74ce0d3700p-1 -0x1.7af18edb9ddd6p-1 "
        "-0x1.4bd2ee5fa1086p-1 -0x1.17417bac4d72ap-1 -0x1.bc345d81e24b6p-2 "
        "-0x1.429a8c588e90fp-2 -0x1.8769542b94f8bp-3 -0x1.0660853eda2e8p-4 "
        "0x1.0660853eda2e8p-4 0x1.8769542b94f8bp-3 0x1.429a8c588e90fp-2 "
        "0x1.bc345d81e24b6p-2 0x1.17417bac4d72ap-1 0x1.4bd2ee5fa1086p-1 "
        "0x1.7af18edb9ddd6p-1 0x1.a3d74ce0d3700p-1 0x1.c5d841864d0f5p-1 "
        "0x1.e06585a70aa4dp-1 0x1.f30f9f0cbf876p-1 0x1.fd892de691982p-1",
        "0x1.9465bd3112466p-7 0x1.d375514486dfbp-6 0x1.6ab884f57c9afp-5 "
        "0x1.e5c6255d25ec1p-5 0x1.2c6d5c2eff05bp-4 0x1.6108ef504464ep-4 "
        "0x1.8fd8936444b22p-4 0x1.b8177ba4a68edp-4 0x1.d91c78acb1b1ep-4 "
        "0x1.f25cbce1d1fe5p-4 0x1.01b7117cf8bd5p-3 0x1.060475e76372fp-3 "
        "0x1.060475e76372fp-3 0x1.01b7117cf8bd5p-3 0x1.f25cbce1d1fe5p-4 "
        "0x1.d91c78acb1b1ep-4 0x1.b8177ba4a68edp-4 0x1.8fd8936444b22p-4 "
        "0x1.6108ef504464ep-4 0x1.2c6d5c2eff05bp-4 0x1.e5c6255d25ec1p-5 "
        "0x1.6ab884f57c9afp-5 0x1.d375514486dfbp-6 0x1.9465bd3112466p-7"),
    (0, 25): (
        "-0x1.fdb9a4a51c2f7p-1 -0x1.f40d4b23b4175p-1 -0x1.e2cd9020c6b0cp-1 "
        "-0x1.ca3c642223461p-1 -0x1.aab8fe033d776p-1 -0x1.84bda14fdc6c2p-1 "
        "-0x1.58ddb0e88edd4p-1 -0x1.27c36f82fec32p-1 -0x1.e45ad3f9e97d4p-2 "
        "-0x1.71d72726b05d8p-2 -0x1.f3707b1145cbfp-3 -0x1.f740f7c98999dp-4 "
        "0x0.0p+0 0x1.f740f7c98999dp-4 0x1.f3707b1145cbfp-3 "
        "0x1.71d72726b05d8p-2 0x1.e45ad3f9e97d4p-2 0x1.27c36f82fec32p-1 "
        "0x1.58ddb0e88edd4p-1 0x1.84bda14fdc6c2p-1 0x1.aab8fe033d776p-1 "
        "0x1.ca3c642223461p-1 0x1.e2cd9020c6b0cp-1 0x1.f40d4b23b4175p-1 "
        "0x1.fdb9a4a51c2f7p-1",
        "0x1.755a1bf834d0fp-7 0x1.afccd36646f7fp-6 0x1.4f5fa2650dc55p-5 "
        "0x1.c1c77e339e004p-5 0x1.16af5d2993108p-4 0x1.48419d704720bp-4 "
        "0x1.74da0d03a8242p-4 0x1.9bcb95550b7d5p-4 0x1.bc7f12e17568ap-4 "
        "0x1.d6759d2b4d1bap-4 0x1.e94a725b474b7p-4 0x1.f4b47ded39741p-4 "
        "0x1.f8877426815cap-4 0x1.f4b47ded39741p-4 0x1.e94a725b474b7p-4 "
        "0x1.d6759d2b4d1bap-4 0x1.bc7f12e17568ap-4 0x1.9bcb95550b7d5p-4 "
        "0x1.74da0d03a8242p-4 0x1.48419d704720bp-4 0x1.16af5d2993108p-4 "
        "0x1.c1c77e339e004p-5 0x1.4f5fa2650dc55p-5 0x1.afccd36646f7fp-6 "
        "0x1.755a1bf834d0fp-7"),
    (0, 26): (
        "-0x1.fde4bb09f2ebbp-1 -0x1.f4eeefea87e4ep-1 -0x1.e4f2087ed8096p-1 "
        "-0x1.ce268cc2b53a5p-1 -0x1.b0de4a659ffe3p-1 -0x1.8d827586847a4p-1 "
        "-0x1.64921d2717daep-1 -0x1.36a05f4a7de91p-1 -0x1.0452576440921p-1 "
        "-0x1.9cb9996b67316p-2 -0x1.2b03510f76b25p-2 -0x1.6a34f50b892e0p-3 "
        "-0x1.e5368246f93cep-5 0x1.e5368246f93cep-5 0x1.6a34f50b892e0p-3 "
        "0x1.2b03510f76b25p-2 0x1.9cb9996b67316p-2 0x1.0452576440921p-1 "
        "0x1.36a05f4a7de91p-1 0x1.64921d2717daep-1 0x1.8d827586847a4p-1 "
        "0x1.b0de4a659ffe3p-1 0x1.ce268cc2b53a5p-1 0x1.e4f2087ed8096p-1 "
        "0x1.f4eeefea87e4ep-1 0x1.fde4bb09f2ebbp-1",
        "0x1.59bf5428e1cf1p-7 0x1.900fe3f869da3p-6 0x1.36fce35747bb0p-5 "
        "0x1.a1980dd136268p-5 0x1.032ba57abcde1p-4 0x1.31e801cc5e839p-4 "
        "0x1.5c59156bc493bp-4 0x1.81e65475c4b51p-4 0x1.a208c9728627cp-4 "
        "0x1.bc4cf7f9b6f0ap-4 0x1.d0547aeae7cffp-4 0x1.ddd757581969fp-4 "
        "0x1.e4a4ff10a762ep-4 0x1.e4a4ff10a762ep-4 0x1.ddd757581969fp-4 "
        "0x1.d0547aeae7cffp-4 0x1.bc4cf7f9b6f0ap-4 0x1.a208c9728627cp-4 "
        "0x1.81e65475c4b51p-4 0x1.5c59156bc493bp-4 0x1.31e801cc5e839p-4 "
        "0x1.032ba57abcde1p-4 0x1.a1980dd136268p-5 0x1.36fce35747bb0p-5 "
        "0x1.900fe3f869da3p-6 0x1.59bf5428e1cf1p-7"),
    (0, 27): (
        "-0x1.fe0b35561f891p-1 -0x1.f5b887a3acb14p-1 -0x1.e6dc701b1fe7ep-1 "
        "-0x1.d1a7aaaf33346p-1 -0x1.b660e20707c1ep-1 -0x1.9563179f6a927p-1 "
        "-0x1.6f1c63d9011dbp-1 -0x1.440c8381c6988p-1 -0x1.14c32cb7573e9p-1 "
        "-0x1.c3bc5e07d0d5bp-2 -0x1.580ec92f218ecp-2 -0x1.cfc9ed837c5c9p-3 "
        "-0x1.d2d4eafd55fb4p-4 0x0.0p+0 0x1.d2d4eafd55fb4p-4 "
        "0x1.cfc9ed837c5c9p-3 0x1.580ec92f218ecp-2 0x1.c3bc5e07d0d5bp-2 "
        "0x1.14c32cb7573e9p-1 0x1.440c8381c6988p-1 0x1.6f1c63d9011dbp-1 "
        "0x1.9563179f6a927p-1 0x1.b660e20707c1ep-1 0x1.d1a7aaaf33346p-1 "
        "0x1.e6dc701b1fe7ep-1 0x1.f5b887a3acb14p-1 0x1.fe0b35561f891p-1",
        "0x1.4117efc976d16p-7 0x1.73b0f3b19ae30p-6 0x1.2127497110854p-5 "
        "0x1.84b4a15fb1cd4p-5 0x1.e331713a17ba9p-5 0x1.1db0f1502afa8p-4 "
        "0x1.460fc0fb00c4bp-4 0x1.6a2e66e278aa4p-4 0x1.8994555918b7ap-4 "
        "0x1.a3d8c1e36b231p-4 0x1.b8a402338b3bbp-4 0x1.c7b0b07175da1p-4 "
        "0x1.d0cc92b685760p-4 0x1.d3d9429e9d2e7p-4 0x1.d0cc92b685760p-4 "
        "0x1.c7b0b07175da1p-4 0x1.b8a402338b3bbp-4 0x1.a3d8c1e36b231p-4 "
        "0x1.8994555918b7ap-4 0x1.6a2e66e278aa4p-4 0x1.460fc0fb00c4bp-4 "
        "0x1.1db0f1502afa8p-4 0x1.e331713a17ba9p-5 0x1.84b4a15fb1cd4p-5 "
        "0x1.2127497110854p-5 0x1.73b0f3b19ae30p-6 0x1.4117efc976d16p-7"),
    (0, 28): (
        "-0x1.fe2db606d9717p-1 -0x1.f66d5e557556ep-1 -0x1.e894ac24695b6p-1 "
        "-0x1.d4cdda1efbc1bp-1 -0x1.bb5643c49dae1p-1 -0x1.9c7d0698c9ac0p-1 "
        "-0x1.78a1fd2f4d007p-1 -0x1.5034927b8f20ap-1 -0x1.23b266d495548p-1 "
        "-0x1.e74b92a4c42d8p-2 -0x1.814813d2b129dp-2 -0x1.169752c4c22bap-2 "
        "-0x1.5109b3258335fp-3 -0x1.c335a497a4801p-5 0x1.c335a497a4801p-5 "
        "0x1.5109b3258335fp-3 0x1.169752c4c22bap-2 0x1.814813d2b129dp-2 "
        "0x1.e74b92a4c42d8p-2 0x1.23b266d495548p-1 0x1.5034927b8f20ap-1 "
        "0x1.78a1fd2f4d007p-1 0x1.9c7d0698c9ac0p-1 0x1.bb5643c49dae1p-1 "
        "0x1.d4cdda1efbc1bp-1 0x1.e894ac24695b6p-1 0x1.f66d5e557556ep-1 "
        "0x1.fe2db606d9717p-1",
        "0x1.2afc07ab1c16fp-7 0x1.5a3a811ece5f9p-6 0x1.0d874b8a22762p-5 "
        "0x1.6aaf12dc69605p-5 0x1.c3707aee4a4d4p-5 0x1.0b5b9f1c0a7a9p-4 "
        "0x1.31c03a8e85dd7p-4 0x1.546ebc0db6011p-4 0x1.72fb5b81c1870p-4 "
        "0x1.8d0729614b3eap-4 0x1.a2413503ecaa3p-4 0x1.b26787e30dbfep-4 "
        "0x1.bd47f27756304p-4 0x1.c2c0a81eda1a7p-4 0x1.c2c0a81eda1a7p-4 "
        "0x1.bd47f27756304p-4 0x1.b26787e30dbfep-4 0x1.a2413503ecaa3p-4 "
        "0x1.8d0729614b3eap-4 0x1.72fb5b81c1870p-4 0x1.546ebc0db6011p-4 "
        "0x1.31c03a8e85dd7p-4 0x1.0b5b9f1c0a7a9p-4 0x1.c3707aee4a4d4p-5 "
        "0x1.6aaf12dc69605p-5 0x1.0d874b8a22762p-5 0x1.5a3a811ece5f9p-6 "
        "0x1.2afc07ab1c16fp-7"),
    (0, 29): (
        "-0x1.fe4cc49235a61p-1 -0x1.f7103457dbf00p-1 -0x1.ea21566d98f76p-1 "
        "-0x1.d7a4ef7c8295cp-1 -0x1.bfd086bff4428p-1 -0x1.a2e9354ebd17dp-1 "
        "-0x1.8142cf974f178p-1 -0x1.5b3eef9559c11p-1 -0x1.314bd903d14dap-1 "
        "-0x1.03e3394be08a2p-1 -0x1.a7118cfbd23d7p-2 -0x1.4191827a340c8p-2 "
        "-0x1.b0d977a824786p-3 -0x1.b350cd2b2559cp-4 0x0.0p+0 "
        "0x1.b350cd2b2559cp-4 0x1.b0d977a824786p-3 0x1.4191827a340c8p-2 "
        "0x1.a7118cfbd23d7p-2 0x1.03e3394be08a2p-1 0x1.314bd903d14dap-1 "
        "0x1.5b3eef9559c11p-1 0x1.8142cf974f178p-1 0x1.a2e9354ebd17dp-1 "
        "0x1.bfd086bff4428p-1 0x1.d7a4ef7c8295cp-1 0x1.ea21566d98f76p-1 "
        "0x1.f7103457dbf00p-1 0x1.fe4cc49235a61p-1",
        "0x1.1714f7cfaabf9p-7 0x1.434a5cffde318p-6 0x1.f7a6f82af0a78p-6 "
        "0x1.532a6b10266d0p-5 0x1.a6aa31c60c5abp-5 0x1.f5602f1929311p-5 "
        "0x1.1f33fb6318cdbp-4 0x1.4076d505783c0p-4 0x1.5e182861a5e83p-4 "
        "0x1.77c202ab8b49ap-4 0x1.8d29f30548b7cp-4 0x1.9e11e22b5b68bp-4 "
        "0x1.aa48c672b99b9p-4 0x1.b1ab31f91b82bp-4 0x1.b423b962daf7fp-4 "
        "0x1.b1ab31f91b82bp-4 0x1.aa48c672b99b9p-4 0x1.9e11e22b5b68bp-4 "
        "0x1.8d29f30548b7cp-4 0x1.77c202ab8b49ap-4 0x1.5e182861a5e83p-4 "
        "0x1.4076d505783c0p-4 0x1.1f33fb6318cdbp-4 0x1.f5602f1929311p-5 "
        "0x1.a6aa31c60c5abp-5 0x1.532a6b10266d0p-5 0x1.f7a6f82af0a78p-6 "
        "0x1.434a5cffde318p-6 0x1.1714f7cfaabf9p-7"),
    (0, 30): (
        "-0x1.fe68d29f64696p-1 -0x1.f7a35927355b0p-1 -0x1.eb87fc62f7b5ep-1 "
        "-0x1.da36e4828656fp-1 -0x1.c3def97bef284p-1 -0x1.a8bcd7f6a16eap-1 "
        "-0x1.891a1fa2fe827p-1 -0x1.654ca8f944f8ap-1 -0x1.3db59b9c8042ep-1 "
        "-0x1.12c0667d07156p-1 -0x1.c9c338717ea9cp-2 -0x1.692b6d7532f8fp-2 "
        "-0x1.04bf8ad8faef4p-2 -0x1.3b2026364c35cp-3 -0x1.a5a8470e14135p-5 "
        "0x1.a5a8470e14135p-5 0x1.3b2026364c35cp-3 0x1.04bf8ad8faef4p-2 "
        "0x1.692b6d7532f8fp-2 0x1.c9c338717ea9cp-2 0x1.12c0667d07156p-1 "
        "0x1.3db59b9c8042ep-1 0x1.654ca8f944f8ap-1 0x1.891a1fa2fe827p-1 "
        "0x1.a8bcd7f6a16eap-1 0x1.c3def97bef284p-1 0x1.da36e4828656fp-1 "
        "0x1.eb87fc62f7b5ep-1 0x1.f7a35927355b0p-1 0x1.fe68d29f64696p-1",
        "0x1.051a0b16f2d4dp-7 0x1.2e8dfb5e0033fp-6 0x1.d79bd0bef64a0p-6 "
        "0x1.3dd7cde653fb0p-5 0x1.8c83c31b15993p-5 0x1.d6fbe3365a0cep-5 "
        "0x1.0e3afe7b90625p-4 0x1.2e1abeb620f4bp-4 0x1.4ac6b18f8351ap-4 "
        "0x1.63f10800ed9b0p-4 0x1.79557743c7f98p-4 0x1.8ab9f1e859c3bp-4 "
        "0x1.97ef454512aacp-4 0x1.a0d1997eea506p-4 0x1.a548d2c7c1395p-4 "
        "0x1.a548d2c7c1395p-4 0x1.a0d1997eea506p-4 0x1.97ef454512aacp-4 "
        "0x1.8ab9f1e859c3bp-4 0x1.79557743c7f98p-4 0x1.63f10800ed9b0p-4 "
        "0x1.4ac6b18f8351ap-4 0x1.2e1abeb620f4bp-4 0x1.0e3afe7b90625p-4 "
        "0x1.d6fbe3365a0cep-5 0x1.8c83c31b15993p-5 0x1.3dd7cde653fb0p-5 "
        "0x1.d79bd0bef64a0p-6 0x1.2e8dfb5e0033fp-6 0x1.051a0b16f2d4dp-7"),
    (0, 31): (
        "-0x1.fe82401b54cfep-1 -0x1.f828c065b00bdp-1 -0x1.eccd50811779fp-1 "
        "-0x1.dc8c2e64fa7e5p-1 -0x1.c78ea06bd4e46p-1 -0x1.ae0a09448c52ap-1 "
        "-0x1.903f53c54c0a9p-1 -0x1.6e7a4b7212b98p-1 -0x1.4910db07c2106p-1 "
        "-0x1.206231af7c7bcp-1 -0x1.e9aba17c2235ep-2 -0x1.8db508a68a121p-2 "
        "-0x1.2dca92e07253dp-2 -0x1.95c0913e5317ep-3 -0x1.97c74f9d65e6bp-4 "
        "0x0.0p+0 0x1.97c74f9d65e6bp-4 0x1.95c0913e5317ep-3 "
        "0x1.2dca92e07253dp-2 0x1.8db508a68a121p-2 0x1.e9aba17c2235ep-2 "
        "0x1.206231af7c7bcp-1 0x1.4910db07c2106p-1 0x1.6e7a4b7212b98p-1 "
        "0x1.903f53c54c0a9p-1 0x1.ae0a09448c52ap-1 0x1.c78ea06bd4e46p-1 "
        "0x1.dc8c2e64fa7e5p-1 0x1.eccd50811779fp-1 0x1.f828c065b00bdp-1 "
        "0x1.fe82401b54cfep-1",
        "0x1.e99bc14e8ba09p-8 0x1.1bbf8f79ff6fcp-6 0x1.ba8409862d755p-6 "
        "0x1.2a74041f1f992p-5 0x1.74af38401980fp-5 0x1.bb36633417032p-5 "
        "0x1.fd55fa5d4aef7p-5 0x1.1d32dc7dce70ap-4 0x1.38e52042ba88fp-4 "
        "0x1.517b505091e74p-4 0x1.66b6de4cdbe3dp-4 0x1.7861c49ffb81ap-4 "
        "0x1.864f0fcefb1bep-4 0x1.905b50ce2e08ap-4 0x1.966cf7229edfdp-4 "
        "0x1.987491ea08776p-4 0x1.966cf7229edfdp-4 0x1.905b50ce2e08ap-4 "
        "0x1.864f0fcefb1bep-4 0x1.7861c49ffb81ap-4 0x1.66b6de4cdbe3dp-4 "
        "0x1.517b505091e74p-4 0x1.38e52042ba88fp-4 0x1.1d32dc7dce70ap-4 "
        "0x1.fd55fa5d4aef7p-5 0x1.bb36633417032p-5 0x1.74af38401980fp-5 "
        "0x1.2a74041f1f992p-5 0x1.ba8409862d755p-6 0x1.1bbf8f79ff6fcp-6 "
        "0x1.e99bc14e8ba09p-8"),
    (1, 1): (
        "-0x1.5555555555555p-2",
        "0x1.0000000000000p+1"),
    (1, 2): (
        "-0x1.613a4dcd41a8cp-1 0x1.28db0200e9b81p-2",
        "0x1.45aca3d575cb5p+0 0x1.74a6b85514696p-1"),
    (1, 3): (
        "-0x1.a54932ac4b548p-1 -0x1.72d2df86e6ed9p-3 0x1.269033b297591p-1",
        "0x1.9b8230f1da299p-1 0x1.d57c5c75b4cc5p-1 0x1.1e02e530e2142p-2"),
    (1, 4): (
        "-0x1.c5867a44e5259p-1 -0x1.c90687b262aa5p-2 0x1.5662ebd487287p-3 "
        "0x1.70e2ca456677bp-1",
        "0x1.1584a60c8fa8ep-1 0x1.a0b2080bfdb5fp-1 0x1.09ed82d38b97fp-1 "
        "0x1.fede789f384abp-4"),
    (1, 5): (
        "-0x1.d73c15b79f3d3p-1 -0x1.353bf8784132fp-1 -0x1.fc1c403080601p-4 "
        "0x1.904f92acb8e03p-2 0x1.9b199e53f1236p-1",
        "0x1.8c6ada4e0dafap-2 0x1.565fa81ab0087p-1 0x1.2bccf0d0b5846p-1 "
        "0x1.2ebb113d8a0aep-2 0x1.02038a7674af7p-4"),
    (1, 6): (
        "-0x1.e1fadfe073df9p-1 -0x1.685e1564bedb5p-1 -0x1.4ddaf87feb03cp-2 "
        "0x1.e0a317ca931cap-4 0x1.13b20aa194564p-1 0x1.b5313efdf2be1p-1",
        "0x1.282ee09a10673p-2 0x1.15974e069ecf0p-1 0x1.2057d8b053386p-1 "
        "0x1.941db707609b1p-2 0x1.6814a9d0f3514p-3 0x1.1e5630418a367p-5"),
    (1, 7): (
        "-0x1.e8fb29e9a5764p-1 -0x1.8a9193048cf9bp-1 -0x1.dfa995dc3e923p-2 "
        "-0x1.8248525f48019p-4 0x1.2dd317a1e6c75p-2 0x1.476efbee5396cp-1 "
        "0x1.c6631b7a04cfep-1",
        "0x1.ca7c117182fd3p-3 0x1.c4a55b1d5c43ep-2 0x1.04e584cdadba0p-1 "
        "0x1.b6c8c5dbee193p-2 0x1.0fe9664463035p-2 0x1.c10efaf07bac4p-4 "
        "0x1.55ba7b216c22ap-6"),
    (1, 8): (
        "-0x1.edcb1a17aa69cp-1 -0x1.a27c106adee1ap-1 -0x1.248c5166f60afp-1 "
        "-0x1.06486de6465c7p-2 0x1.722b58ae4088ep-4 0x1.b49538c30d5edp-2 "
        "0x1.6c2b407d6ea60p-1 0x1.d24b79f6f42d2p-1",
        "0x1.6cf5cef7c9bf5p-3 0x1.753938a8fca06p-2 0x1.ccd2e195679abp-2 "
        "0x1.b25eb749abef7p-2 0x1.4466cc9ad01d5p-2 0x1.743d28e734a5fp-3 "
        "0x1.24568ed7e20e6p-4 0x1.afe846f5003fbp-7"),
    (1, 9): (
        "-0x1.f13ddf8f9b284p-1 -0x1.b3d3cac7db562p-1 -0x1.4ba81345ff092p-1 "
        "-0x1.85cd00fca2779p-2 -0x1.3789d97462c11p-4 0x1.e3cee5c1c38f9p-3 "
        "0x1.0d2179fb6c65bp-1 0x1.87164ddf01ec5p-1 0x1.dadf3b5dc4bd3p-1",
        "0x1.29307cd64afe0p-3 0x1.3799a35c31523p-2 0x1.93981e02ec6dep-2 "
        "0x1.9add68efc7908p-2 0x1.59881c9782906p-2 0x1.de6c2efae1a3bp-3 "
        "0x1.048b8b8518205p-3 0x1.8b2ea5ff1330cp-5 0x1.1dd915d26afd1p-7"),
    (1, 10): (
        "-0x1.f3cbde803ee0ep-1 -0x1.c0c94ec8b17ccp-1 -0x1.695b9dbba9d7dp-1 "
        "-0x1.e9251da413eabp-2 -0x1.af8e20bed564ap-3 0x1.2cf6c6a7d03a8p-4 "
        "0x1.685591e68241cp-2 0x1.3433d17a8e2dep-1 0x1.9b5a200c0298bp-1 "
        "0x1.e14011c3be583p-1",
        "0x1.ed267ca5b0fdep-4 0x1.0751f7a2b5e69p-2 0x1.611f19b49a33ep-2 "
        "0x1.7bafbcec95f4ep-2 0x1.5a588e4c43201p-2 0x1.0e8dab7584542p-2 "
        "0x1.638c651349d9ap-3 0x1.75238f5e2d7b1p-4 0x1.13e25f8fad621p-5 "
        "0x1.88fd9f7011580p-8"),
    (1, 11): (
        "-0x1.f5bdc494383ecp-1 -0x1.cab737fcb4618p-1 -0x1.8063d15e34ff9p-1 "
        "-0x1.1bcfac021a8d2p-1 -0x1.47a9cd8b11047p-2 -0x1.050444b81667ap-4 "
        "0x1.9371e23584676p-3 0x1.c712840d5d23ap-2 0x1.52c3c3325477ep-1 "
        "0x1.aaf723a825316p-1 0x1.e61eac0bc3b80p-1",
        "0x1.9f9e56a91778ap-4 0x1.c20d87170d1dap-3 0x1.35bd5e153db6ap-2 "
        "0x1.5ac3d6c95c874p-2 0x1.4f607658f3e91p-2 0x1.1ccd749d57dcfp-2 "
        "0x1.a6a2ecdaff402p-3 0x1.0b6648f40e80ep-3 0x1.11044d70803dep-4 "
        "0x1.8c182add6817ep-6 0x1.16d580f407917p-8"),
    (1, 12): (
        "-0x1.f74189b858059p-1 -0x1.d27ca0594c726p-1 -0x1.9294bc80e621ap-1 "
        "-0x1.3b3cc1039c057p-1 -0x1.a30f58d1d44a1p-2 -0x1.6e6847eb4c14fp-3 "
        "0x1.fb1945653f17cp-5 0x1.3261d363358acp-2 0x1.09d44a925ae5cp-1 "
        "0x1.6b0fd270bc6cbp-1 0x1.b73c99233b8fcp-1 0x1.e9eba26f793a5p-1",
        "0x1.62f5033ed0f34p-4 0x1.84876a259ba3bp-3 0x1.10d23d7a26756p-2 "
        "0x1.3af7ee9af2d10p-2 0x1.3e3e7e3be0b5ep-2 0x1.1f2af8a6f186ap-2 "
        "0x1.cfc7d5e808aacp-3 0x1.4b614437b0a15p-3 0x1.9794c79267868p-4 "
        "0x1.9780ce54ce1b3p-5 0x1.234b801e911fdp-6 0x1.966b324c88602p-9"),
    (1, 13): (
        "-0x1.f87566a2c935ap-1 -0x1.d8ae28878b120p-1 -0x1.a12eb7a89ba93p-1 "
        "-0x1.54bc269f66be9p-1 -0x1.ee56c7f58b50cp-2 -0x1.1a5ada9e8b444p-2 "
        "-0x1.c12d6b60c5d3cp-5 0x1.59e1e9fd0f643p-3 0x1.896c3fff50f48p-2 "
        "0x1.291eec8c8e4bep-1 0x1.7ea9daf0c984ap-1 0x1.c10c8e4955bd2p-1 "
        "0x1.ecf1678ba50d9p-1",
        "0x1.329f460745cb9p-4 0x1.527eed7705da2p-3 0x1.e2f35e6fd0922p-3 "
        "0x1.1d8bdea5ccfa8p-2 0x1.2a647180f1853p-2 0x1.19de5009b23f4p-2 "
        "0x1.e450a2b891de0p-3 0x1.78cc24b83e89fp-3 0x1.05a04c0cd4ca7p-3 "
        "0x1.3acd2d698cc42p-4 0x1.359f52cfa5100p-5 0x1.b590bf9bd6b30p-7 "
        "0x1.2f117524bad69p-9"),
    (1, 14): (
        "-0x1.f96de278fe8e5p-1 -0x1.ddb1cecca8e57p-1 -0x1.ad12231da9c35p-1 "
        "-0x1.69abfc19a98ddp-1 -0x1.167113b351548p-1 -0x1.6e0914738252dp-2 "
        "-0x1.3e47f5196a537p-3 0x1.b612b80143609p-5 0x1.0a50acdea5f25p-2 "
        "0x1.d2480839d4547p-2 0x1.42f587219d5f9p-1 0x1.8eafe19b401a2p-1 "
        "0x1.c90393338063ap-1 0x1.ef62c66445deap-1",
        "0x1.0b7f5ef76273bp-4 0x1.2956648714010p-3 0x1.ada322e325042p-3 "
        "0x1.02eba9585e066p-2 0x1.15d6a67a2247fp-2 0x1.0ff16cea4c31ap-2 "
        "0x1.e9c36798cb933p-3 0x1.95a9d2b62c5e1p-3 0x1.32bbdd5812fc0p-3 "
        "0x1.a089be1e6156dp-4 0x1.ec941a7b5ae8cp-5 0x1.de2eb0ba59b16p-6 "
        "0x1.4ec56b42a193ap-7 0x1.cd12bffa8f675p-10"),
    (1, 15): (
        "-0x1.fa3953c55838fp-1 -0x1.e1cf646dfc173p-1 -0x1.b6df85d7703e0p-1 "
        "-0x1.7b0d935cf6f98p-1 -0x1.30a5bd3d880dap-1 -0x1.b507de4583d25p-2 "
        "-0x1.efddfc512755bp-3 -0x1.8a29459787c74p-5 0x1.2ea66699f8350p-3 "
        "0x1.5a24a37972277p-2 0x1.07d943ede351dp-1 0x1.58815b94a6defp-1 "
        "0x1.9bf10b7c227a5p-1 0x1.cf90b23db9b37p-1 0x1.f163591a4b58dp-1",
        "0x1.d6c7b715119eep-5 0x1.071e84ea22aa8p-3 0x1.8022e5807f58ap-3 "
        "0x1.d6360fcc322e7p-3 0x1.01b66aa61c87ep-2 0x1.0374f37d1676bp-2 "
        "0x1.e4c146753cf66p-3 0x1.a52b89d7ab44bp-3 0x1.5327a274b7eefp-3 "
        "0x1.f582add3f7759p-4 0x1.4e80352861105p-4 0x1.86139621582a9p-5 "
        "0x1.76af133593cbcp-6 0x1.0456fa1935cd7p-7 0x1.64dff68c8dd8dp-10"),
    (1, 16): (
        "-0x1.fae1fce580ceap-1 -0x1.e53aa27ef18bap-1 -0x1.bf0bf54ca6faap-1 "
        "-0x1.89a0902c81045p-1 -0x1.46c9de35d7377p-1 -0x1.f19cfa405abdap-2 "
        "-0x1.44ac769464c46p-2 -0x1.194ba5249c25ap-3 0x1.81953caac6886p-5 "
        "0x1.d6dd4f7c0363bp-3 0x1.9eade813d22acp-2 0x1.21eae0f8280acp-1 "
        "0x1.6aa330cbd7991p-1 0x1.a705e1dbb9030p-1 0x1.d5045a5b00097p-1 "
        "0x1.f30cab94c85bbp-1",
        "0x1.a1711552cb2bbp-5 0x1.d4c95308834b6p-4 0x1.591fd220a5cd0p-3 "
        "0x1.abdb4d1c319b4p-3 0x1.dd37ff11bfc76p-3 0x1.eb86e9af3f68fp-3 "
        "0x1.d8d5438912fbcp-3 0x1.aa82692aacbd1p-3 0x1.686d32b398ea4p-3 "
        "0x1.1bd5bce2bf333p-3 0x1.9c3578d89f699p-4 0x1.0efc0b7966a27p-4 "
        "0x1.386a65a12debbp-5 0x1.297baea5bca23p-6 0x1.9ad43cf68a5e9p-8 "
        "0x1.187cc8b15c1a9p-10"),
    (1, 17): (
        "-0x1.fb6f5d1daeab3p-1 -0x1.e81988cc36189p-1 -0x1.c5ee58a2db5c5p-1 "
        "-0x1.95f59088e17dfp-1 -0x1.59a415b978f0cp-1 -0x1.12cf072c561afp-1 "
        "-0x1.873aacc681202p-2 -0x1.b9dc0b16573fdp-3 -0x1.5f2603a5ce331p-5 "
        "0x1.0d00253fa07ccp-3 0x1.34d4d37740c6ep-2 0x1.d9cd7acfa71e1p-2 "
        "0x1.3833669b68a1ap-1 0x1.7a06aae28a799p-1 0x1.b0607a62269fap-1 "
        "0x1.d999e9fc0c67dp-1 0x1.f4717416722dap-1",
        "0x1.74a925f819e3bp-5 0x1.a4202353ab15ap-4 0x1.3781bbb6d1f8fp-3 "
        "0x1.86483ddc4c1ccp-3 0x1.b99d2070399f3p-3 0x1.cf73765689dcap-3 "
        "0x1.c894983743132p-3 0x1.a86ce7666aba8p-3 0x1.748dd6cead56fp-3 "
        "0x1.33f4d211870b9p-3 0x1.dc5b64869f0ddp-4 0x1.54d745ad0b4d8p-4 "
        "0x1.bad11c4d869d3p-5 0x1.f9b4150e02191p-6 0x1.de0cbf4b66e1fp-7 "
        "0x1.4862299e21e3fp-8 0x1.beefefc1a5d2ap-11"),
    (1, 18): (
        "-0x1.fbe70943a4871p-1 -0x1.ea88815ef9c8ep-1 -0x1.cbc837cc5b492p-1 "
        "-0x1.a07b1a9884103p-1 -0x1.69cf4ff59d63fp-1 -0x1.29428ecce6573p-1 "
        "-0x1.c12f260641187p-2 -0x1.23939721e6db5p-2 -0x1.f7fc0b129be52p-4 "
        "0x1.5852bdd5ab427p-5 0x1.a5d82bf70c017p-3 0x1.7511e53c43cb3p-2 "
        "0x1.0687be347a8e6p-1 0x1.4b5fbefe80b2ap-1 0x1.873034816a406p-1 "
        "0x1.b85765676d92ep-1 0x1.dd7df1bed3a93p-1 0x1.f59fa7b1b2f1fp-1",
        "0x1.4eb416e9707bdp-5 0x1.7a930e9206280p-4 0x1.1a632d0da3478p-3 "
        "0x1.64f51b3b066d5p-3 0x1.98cc8e137dc62p-3 0x1.b3c06934882bdp-3 "
        "0x1.b5d2e467a0ecap-3 0x1.a11c8a080741bp-3 0x1.7981cca59369bp-3 "
        "0x1.443b84f43ea65p-3 0x1.073f92ac34f67p-3 0x1.9134658da86bbp-4 "
        "0x1.1b944620f28b1p-4 0x1.6cc4e5017f2d9p-5 0x1.9d45c6c4628e8p-6 "
        "0x1.844b1827efbfcp-7 0x1.098ef80f7c473p-8 0x1.686f830d7a43ep-11"),
    (1, 19): (
        "-0x1.fc4d3ac0d67e0p-1 -0x1.ec9d21ec626f3p-1 -0x1.d0cbb414933dep-1 "
        "-0x1.a986aacf9d7bdp-1 -0x1.77c55c83d57acp-1 -0x1.3cc15f320a00fp-1 "
        "-0x1.f3dd61cea14ebp-2 -0x1.61e51223b1968p-2 -0x1.8e63df2865c80p-3 "
        "-0x1.3c991467bcbfcp-5 0x1.e4249e8468bb9p-4 0x1.16ae835c77320p-2 "
        "0x1.ad7b348c98845p-2 0x1.1cdc532fcb1fbp-1 0x1.5bf9694429e34p-1 "
        "0x1.928701bc1dd64p-1 0x1.bf2d32471d105p-1 0x1.e0d268100a592p-1 "
        "0x1.f6a1db0b4906dp-1",
        "0x1.2e40d62edbdf5p-5 0x1.56d459bd1dac3p-4 0x1.0108d1871edd3p-3 "
        "0x1.475f2a0dcb56cp-3 0x1.7ac1ac0d57b27p-3 0x1.990f7a564a173p-3 "
        "0x1.a1d38830aaba1p-3 0x1.963ff6583d892p-3 0x1.790319718787ap-3 "
        "0x1.4dfa84e2dc400p-3 0x1.19cbd7ed70003p-3 0x1.c2db19f1e1b62p-4 "
        "0x1.53570d135c403p-4 0x1.dacda5bc3b070p-5 0x1.2ecfe5ced0b68p-5 "
        "0x1.54c5dac055ab9p-6 0x1.3e8458dbe8489p-7 0x1.b20c4658623b8p-9 "
        "0x1.25de6de57c2e7p-11"),
    (1, 20): (
        "-0x1.fca53033fe2e0p-1 -0x1.ee680bf7d7bdcp-1 -0x1.d51fa7d2d994fp-1 "
        "-0x1.b15b1f11941f1p-1 -0x1.83e6cdacf3f32p-1 -0x1.4dc697fd11877p-1 "
        "-0x1.1030008d2da44p-1 -0x1.990671caf3673p-2 -0x1.08868429fe4c7p-2 "
        "-0x1.c86a38cccbea0p-4 0x1.3709e0c7a8b26p-5 0x1.7e0400027d8e4p-3 "
        "0x1.52e1c70a39a5cp-2 0x1.df32edd74ffd7p-2 0x1.306983e091735p-1 "
        "0x1.6a6e656c90f9ep-1 0x1.9c5c4e7e592ecp-1 0x1.c515afe83a26ap-1 "
        "0x1.e3b18a178e7f9p-1 0x1.f78031764d195p-1",
        "0x1.124bbafd0e668p-5 0x1.37de72d4eceb1p-4 0x1.d5b34d7e8c84cp-4 "
        "0x1.2d0ed6c6fe727p-3 0x1.5f5b783e13840p-3 0x1.7fba25d472a4ap-3 "
        "0x1.8d71a591f6c48p-3 0x1.8918ce898aa1ep-3 0x1.747ebc8ddae8ep-3 "
        "0x1.527982f0bed68p-3 0x1.269fe6f236449p-3 0x1.e9e8fed3ae838p-4 "
        "0x1.8313ac9b1e01ap-4 0x1.204f72b01c173p-4 0x1.8fe6f57f19876p-5 "
        "0x1.fa70c108aeeb3p-6 0x1.1b5394b3d3873p-6 0x1.07a55156aa04bp-7 "
        "0x1.661f111869b3bp-9 0x1.e3f26124c6e00p-12"),
    (1, 21): (
        "-0x1.fcf1701dfdbf4p-1 -0x1.eff63a24e5d4fp-1 -0x1.d8e28c44e59c0p-1 "
        "-0x1.b82d51d7e4c64p-1 -0x1.8e80d4c391005p-1 -0x1.5cb638c037d35p-1 "
        "-0x1.23d0f64c05b0cp-1 -0x1.c9f31b5f4584fp-2 -0x1.42eef90cc8f2dp-2 "
        "-0x1.6aaa4a8162fc0p-3 -0x1.203c8682baacfp-5 0x1.b812204c40549p-4 "
        "0x1.fbac10568859ap-3 0x1.887f6fa24075cp-2 0x1.05970ef1505f6p-1 "
        "0x1.419c839dd57c1p-1 0x1.771748b54073ap-1 0x1.a4f0a6ff65d52p-1 "
        "0x1.ca39a68aa207bp-1 0x1.e62fde1f753f2p-1 0x1.f8410260399b1p-1",
        "0x1.f41452d1330a8p-6 0x1.1ce23f75ebda0p-4 0x1.aeb0c296f6a6bp-4 "
        "0x1.1599c00975b6cp-3 0x1.466b12517b5e2p-3 0x1.67eb91e04a4b9p-3 "
        "0x1.793e6ad74e892p-3 0x1.7a92bf4420ef0p-3 0x1.6d1782a86202ep-3 "
        "0x1.52dc30a395584p-3 0x1.2ea104058f23cp-3 0x1.039aa5fec94bbp-3 "
        "0x1.aa5c91bb8fc09p-4 0x1.4d576b4fe6609p-4 0x1.ec2bd2d4f5ba7p-5 "
        "0x1.52cb93e373a30p-5 0x1.aa6a97248e43fp-6 0x1.dabfed3d6872dp-7 "
        "0x1.b81368d7a5adbp-8 0x1.2a0e94a3d6d8cp-9 0x1.9212e5c6f5fc3p-12"),
    (1, 22): (
        "-0x1.fd33f7c2e25b9p-1 -0x1.f151ebca1e987p-1 -0x1.dc2c8b3fb297ep-1 "
        "-0x1.be2772cd29ef9p-1 -0x1.97d1a43ca032fp-1 -0x1.69e1e636cff15p-1 "
        "-0x1.35334560ea082p-1 -0x1.f581f6ccd9046p-2 -0x1.77437f87f9d26p-2 "
        "-0x1.e40a58fc832eap-3 -0x1.a1099a2bd4807p-4 0x1.1b9ef34e703e8p-5 "
        "0x1.5d06c0ad7e58fp-3 0x1.3654f85151738p-2 0x1.b860f4f2baa6cp-2 "
        "0x1.191d95797b08ap-1 0x1.50cf412e98aa6p-1 0x1.823be487116c8p-1 "
        "0x1.ac77cb128bc4bp-1 0x1.ceb9862a9b108p-1 0x1.e85da0d1b0f30p-1 "
        "0x1.f8e94de2a33b0p-1",
        "0x1.c9b85f9860e33p-6 0x1.053a3509da424p-4 0x1.8c3c0a65685f5p-4 "
        "0x1.00a2bb9263013p-3 0x1.2fbc37d864fcep-3 0x1.51b1a61defac1p-3 "
        "0x1.659735962ebafp-3 0x1.6b57c2af82551p-3 0x1.63afb7fd0c660p-3 "
        "0x1.50198623886b0p-3 0x1.32ad39fd45506p-3 0x1.0df5ab981e3e9p-3 "
        "0x1.c97d023fd0c94p-4 0x1.73bd85b33c866p-4 0x1.2007f01ef9315p-4 "
        "0x1.a606d06d953d8p-5 0x1.20a4800696011p-5 0x1.695b793ce4d68p-6 "
        "0x1.90958754c3919p-7 0x1.721611daf1296p-8 0x1.f4185c1e2077dp-10 "
        "0x1.50cb8dcd9802fp-12"),
    (1, 23): (
        "-0x1.fd6e5cb02dd44p-1 -0x1.f2834e28ab530p-1 -0x1.df10fefdae4eep-1 "
        "-0x1.c36b7c8171f55p-1 -0x1.a00bbc2e25bdep-1 -0x1.758ca7b2b6bbbp-1 "
        "-0x1.44a8610b85088p-1 -0x1.0e350f348731cp-1 -0x1.a642661c8881dp-2 "
        "-0x1.28df249e4e4f6p-2 -0x1.4ccb2791e2bf1p-3 -0x1.0889b04faf69cp-5 "
        "0x1.9357c40baeb90p-4 0x1.d20ab56a9ea27p-3 0x1.693a06738266cp-2 "
        "0x1.e34261d0deafep-2 0x1.2a83f221d57bdp-1 0x1.5e4c1a24ffcaep-1 "
        "0x1.8c16d6dd25a70p-1 0x1.b31b919e47697p-1 0x1.d2af5b233498ap-1 "
        "0x1.ea47cc9d9d20ep-1 0x1.f97d104943d67p-1",
        "0x1.a484647933978p-6 0x1.e0c1a7f3122b7p-5 0x1.6dab1a4d50635p-4 "
        "0x1.dbb1d638b70bbp-4 0x1.1b1a1b11dfa7ap-3 0x1.3d084243ea8fep-3 "
        "0x1.52b56f34b4a8dp-3 0x1.5be091b34934ep-3 0x1.58f483beed1edp-3 "
        "0x1.4afc2da0950abp-3 0x1.338ca28f3f26bp-3 0x1.14a6c28f0a69fp-3 "
        "0x1.e124fe0eb073ep-4 0x1.936c951874b3dp-4 0x1.44daf5abbd82fp-4 "
        "0x1.f381c73b10c7fp-5 0x1.6b84fca443ba6p-5 0x1.ee78cc6e40bc2p-6 "
        "0x1.34149738ab887p-6 0x1.543cf00860c1ap-7 0x1.396a2ee460d29p-8 "
        "0x1.a69e001f52183p-10 0x1.1c3c4ee38951ap-12"),
    (1, 24): (
        "-0x1.fda1e515963eap-1 -0x1.f390f7c99edbfp-1 -0x1.e19f8c046f443p-1 "
        "-0x1.c81508984ae09p-1 -0x1.a7586a75e5a59p-1 -0x1.7fedd48b3128dp-1 "
        "-0x1.527466a0d392bp-1 -0x1.1fa3b73df4455p-1 -0x1.d091daf4df213p-2 "
        "-0x1.5a8708d171b20p-2 -0x1.be0712d169f8bp-3 -0x1.7fe8147bd6472p-4 "
        "0x1.04a50ef4fabf7p-5 0x1.4142cc8b13ac1p-3 0x1.1e274f1ba6b8dp-2 "
        "0x1.972b96db59dccp-2 0x1.04e2d4b0cbd33p-1 0x1.3a136c2da76a2p-1 "
        "0x1.6a50d382ed788p-1 0x1.94d847ceac3ddp-1 0x1.b8fe1342214b6p-1 "
        "0x1.d6303ff328ac0p-1 0x1.ebf8da654f8dap-1 0x1.f9ff7ed45bfd3p-1",
        "0x1.83aac6141eb32p-6 0x1.bbd31dbecd579p-5 0x1.5270e550ca684p-4 "
        "0x1.b9ece568ade89p-4 0x1.085208b3818d2p-3 0x1.29e08f96c00f6p-3 "
        "0x1.40b9c907c0e00p-3 0x1.4c816f003ed79p-3 0x1.4d689eecaed26p-3 "
        "0x1.4426fd8211728p-3 0x1.31ec0bb56c351p-3 0x1.1849a425a2f50p-3 "
        "0x1.f23208e2a1a9cp-4 0x1.acb835f6098a0p-4 0x1.643a15666458bp-4 "
        "0x1.1c9be06777026p-4 0x1.b2abb112a1782p-5 0x1.3a81411e0fcd5p-5 "
        "0x1.a9b41c8baaae6p-6 0x1.0826cea9722d9p-6 0x1.22c2067ec7721p-7 "
        "0x1.0b25348368d1cp-8 0x1.678d7ec678ec3p-10 0x1.e3121550142b0p-13"),
    (1, 25): (
        "-0x1.fdcf99b37cea3p-1 -0x1.f48043a7c9bafp-1 -0x1.e3e4f2cdc8479p-1 "
        "-0x1.cc3aafa2f8a07p-1 -0x1.add9b3ab56784p-1 -0x1.89335f8500261p-1 "
        "-0x1.5ed0817deef4cp-1 -0x1.2f4f5378e2d94p-1 -0x1.f6c256b3fc82ap-2 "
        "-0x1.878fc9703c8ccp-2 -0x1.12a61a1fdbeb2p-2 -0x1.337373a1b3d5cp-3 "
        "-0x1.e8e1256deeef8p-6 0x1.74443b8400613p-4 0x1.aeac5a9383249p-3 "
        "0x1.4e78d7f656efbp-2 0x1.c0bc51802be0ap-2 0x1.163b061c93ecap-1 "
        "0x1.4809f136b06e8p-1 0x1.7510f9b650e0fp-1 0x1.9ca807a5ba815p-1 "
        "0x1.be3b4e46790aep-1 0x1.d94d71933b895p-1 0x1.ed79504b1f298p-1 "
        "0x1.fa73348956302p-1",
        "0x1.6684655aac06cp-6 0x1.9af6e3d77586ap-5 0x1.3a17d77197889p-4 "
        "0x1.9b7e359c27639p-4 0x1.ee697d32207b3p-4 0x1.1825bfcb9dc87p-3 "
        "0x1.2fb4232bdebacp-3 0x1.3d73de35896bap-3 0x1.416d8c791cc9dp-3 "
        "0x1.3c1ad13123f15p-3 0x1.2e5ca1c99c684p-3 0x1.196c127d88797p-3 "
        "0x1.fd8d1d94db3a6p-4 0x1.c02d539851933p-4 0x1.7e35c671b9f4dp-4 "
        "0x1.3b17b3f8139a4p-4 0x1.f40daf10a057ap-5 0x1.7b98c38ffb945p-5 "
        "0x1.11427a9a0749fp-5 0x1.70470ea10cddbp-6 0x1.c763af9b60c06p-7 "
        "0x1.f3ca47a680b03p-8 0x1.ca27868a4e114p-9 0x1.33ce4a5a6db41p-10 "
        "0x1.9d1d31888664bp-13"),
    (1, 26): (
        "-0x1.fdf8533b99e68p-1 -0x1.f5559565c765ap-1 -0x1.e5ebad8949d36p-1 "
        "-0x1.cfef144245c35p-1 -0x1.b3abcb75ccdecp-1 -0x1.9183a4a5d5e78p-1 "
        "-0x1.69ecdd75013ccp-1 -0x1.3d70832769c82p-1 -0x1.0ca8975357e18p-1 "
        "-0x1.b07bf4dec7d19p-2 -0x1.41cc46227f190p-2 -0x1.9d82a6a5fcceap-3 "
        "-0x1.63a58990ac2c1p-4 0x1.e2394773b042ep-6 0x1.2992d65f5cfd0p-3 "
        "0x1.096d60b098ddap-2 0x1.7a7ba6e2061fap-2 0x1.e66cd8988a4ddp-2 "
        "0x1.25e5a244aca23p-1 0x1.549bfd74fbdd0p-1 0x1.7eb7c61726476p-1 "
        "0x1.a3a734270f119p-1 0x1.c2ea6773d41acp-1 0x1.dc15204086533p-1 "
        "0x1.eed02cd15119dp-1 0x1.fada53acc6d56p-1",
        "0x1.4c884ce20e5a3p-6 0x1.7d9a2374e6d93p-5 0x1.243d71d6f2568p-4 "
        "0x1.7ffe04475d7dbp-4 0x1.cf2df94b0a5efp-4 0x1.07c0199a098e5p-3 "
        "0x1.1fa9148091286p-3 0x1.2edde92fc462bp-3 0x1.354b27dcc1ef2p-3 "
        "0x1.333c6bb224c07p-3 0x1.29560dbb581b4p-3 0x1.188a71bc2b677p-3 "
        "0x1.020b86ad1f69cp-3 0x1.ce728f96bb38cp-4 0x1.931c6640d9634p-4 "
        "0x1.55158a2085a44p-4 0x1.174228f16fc30p-4 0x1.b8869e774d65bp-5 "
        "0x1.4caa1edba7964p-5 0x1.dccbc3a505f74p-6 0x1.4010606b21c7ep-6 "
        "0x1.8a815b3fa03c1p-7 0x1.afd7d94203da2p-8 0x1.8b107fac57d74p-9 "
        "0x1.0907345ec2897p-10 0x1.635e8bb9c10f0p-13"),
    (1, 27): (
        "-0x1.fe1cc46a4c5c9p-1 -0x1.f6148cee54401p-1 -0x1.e7bc6818fb695p-1 "
        "-0x1.d341afead9271p-1 -0x1.b8e6386d59557p-1 -0x1.98fed5caf8c57p-1 "
        "-0x1.73f23b90034f6p-1 -0x1.4a37af1b2a773p-1 -0x1.1c5586dbcb82ap-1 "
        "-0x1.d5bef3287c6acp-2 -0x1.6ce98569a0ab2p-2 -0x1.fef886c28929bp-3 "
        "-0x1.1daeead8ad31ep-3 -0x1.c65bf3a42be65p-6 0x1.59a1beafbc0c6p-4 "
        "0x1.9042fc078b3a0p-3 0x1.37574eae8e129p-2 0x1.a2a3db54c91f0p-2 "
        "0x1.0456da7e34345p-1 0x1.34162e087da40p-1 0x1.5ff630ee2cccap-1 "
        "0x1.8769a30adb73fp-1 0x1.a9f181f761dfbp-1 0x1.c71ea1593ab47p-1 "
        "0x1.de930edd44aefp-1 0x1.f003381ccaf66p-1 0x1.fb369f0f4adbcp-1",
        "0x1.35456485ac6a2p-6 0x1.6342d7b09459ap-5 0x1.108ecaf747179p-4 "
        "0x1.6712de1320dc0p-4 0x1.b2a3469890b00p-4 0x1.f12dce6c0d67dp-4 "
        "0x1.1095c612df024p-3 0x1.20d78447214a3p-3 0x1.2935aa4ed21b5p-3 "
        "0x1.29d9cc4fd6191p-3 0x1.233993ec67ed6p-3 0x1.160f443d4c568p-3 "
        "0x1.034f1cd621000p-3 0x1.d83450221deb5p-4 0x1.a35e4206befe7p-4 "
        "0x1.6ab469cff77aep-4 0x1.30c8e2ba76127p-4 0x1.f00ecf80a8922p-5 "
        "0x1.852f9d5780a16p-5 0x1.24892a63ee9ddp-5 0x1.a19afe76fb1e4p-6 "
        "0x1.176008f2fdbf8p-6 0x1.575ee071061b7p-7 0x1.76fee46ff0c13p-8 "
        "0x1.566fb749a3df1p-9 0x1.cad6f1ee4d913p-11 0x1.335dce56064fap-13"),
    (1, 28): (
        "-0x1.fe3d81bbaa80fp-1 -0x1.f6c02df1d9382p-1 -0x1.e95e5c3f6f693p-1 "
        "-0x1.d63f7148855ddp-1 -0x1.bd9cb82bce1e5p-1 -0x1.9fc01bd89c0a8p-1 "
        "-0x1.7d033a9de7063p-1 -0x1.55ce56758b0adp-1 -0x1.2a971b5f77d47p-1 "
        "-0x1.f7be7bec8100cp-2 -0x1.9465ec17365fcp-2 -0x1.2c4eb38a78d9ap-2 "
        "-0x1.81627884ce1c9p-3 -0x1.4b4210ee4bc30p-4 0x1.c09abfa67c680p-6 "
        "0x1.15213e15dbe1ep-3 0x1.eef132e16c85fp-3 0x1.617abd1b4ba15p-2 "
        "0x1.c758de79166f0p-2 0x1.13f09fb2416b7p-1 0x1.40f912600126ep-1 "
        "0x1.6a3e9dfce0bfep-1 0x1.8f45631c47a7fp-1 0x1.af9e3fc5acf57p-1 "
        "0x1.cae81c77b9452p-1 0x1.e0d10dc578f40p-1 0x1.f117423d5165ep-1 "
        "0x1.fb898d617f5efp-1",
        "0x1.205da03c8a51ep-6 0x1.4b8af6da13e43p-5 0x1.fd8b849f84d39p-5 "
        "0x1.506f8a735a17dp-4 0x1.988324ceda169p-4 0x1.d523514b458d8p-4 "
        "0x1.0272a1068e4d8p-3 0x1.136e87c5ef2afp-3 0x1.1d52611ef06fbp-3 "
        "0x1.202ec059e6f27p-3 0x1.1c556b9ac86e9p-3 0x1.12542c8675789p-3 "
        "0x1.02ed0f9fc7fdfp-3 0x1.de18e4df88fe2p-4 0x1.af7ab42f3717bp-4 "
        "0x1.7c393f6af8960p-4 0x1.46971a545b0d6p-4 0x1.10c515680ee95p-4 "
        "0x1.b991f0e30bd96p-5 0x1.58cd90426286fp-5 0x1.021b4483deb5ap-5 "
        "0x1.6f243eaee642ap-6 0x1.e9bba1b2a000cp-7 0x1.2c30325ea5ea9p-7 "
        "0x1.4727442a86766p-8 0x1.2a4310e1efb1ep-9 0x1.8f2d127d2f753p-11 "
        "0x1.0b32e5082b77cp-13"),
    (1, 29): (
        "-0x1.fe5b075c91608p-1 -0x1.f75afe67e3831p-1 -0x1.ead7991b0ad40p-1 "
        "-0x1.d8f337ce37d7cp-1 -0x1.c1dff2cb9e6a1p-1 -0x1.a5de7d43611d8p-1 "
        "-0x1.853d6232fddacp-1 -0x1.6058258d1a60bp-1 -0x1.379642dcfdcdfp-1 "
        "-0x1.0b6a0acd3612dp-1 -0x1.b89ec4df4b2b9p-2 -0x1.5594cf67b3e42p-2 "
        "-0x1.dd97fb4b8a390p-3 -0x1.0ac932f4c4ef0p-3 -0x1.a86459bff2e07p-6 "
        "0x1.428cfe7295780p-4 0x1.75d6c9d910d59p-3 0x1.2328112d49480p-2 "
        "0x1.8834e76e4bff8p-2 0x1.e8f67af69d667p-2 0x1.222eb5195c5cep-1 "
        "0x1.4cb4abeb439bdp-1 0x1.7395dcec05429p-1 0x1.96653b2b161d5p-1 "
        "0x1.b4c1237afdc30p-1 0x1.ce546dcb0f204p-1 0x1.e2d75a5323cc3p-1 "
        "0x1.f210535ffa64ep-1 0x1.fbd4581ddcbdcp-1",
        "0x1.0d82479e39431p-6 0x1.361caadee4f16p-5 0x1.dd4d8301c0884p-5 "
        "0x1.3bd13f7ff0eebp-4 0x1.808ecdd4b4e6dp-4 0x1.bb3195786d3b6p-4 "
        "0x1.ea6a519633ae2p-4 0x1.06a99ae809014p-3 0x1.11bb534895ef9p-3 "
        "0x1.1668adb491462p-3 0x1.14e7ea773402fp-3 0x1.0da3a42fd3a95p-3 "
        "0x1.01352b231b9a3p-3 0x1.e0ba0fb9ff46ap-4 0x1.b7f3f63bc7dd0p-4 "
        "0x1.89fdc2cdc9b1bp-4 0x1.58cfd8a44f36dp-4 0x1.265f557737961p-4 "
        "0x1.e91169297c934p-5 0x1.89f7e46ebea87p-5 0x1.32561549be707p-5 "
        "0x1.c8ee54402babfp-6 0x1.43f05944dc18fp-6 0x1.aeebe6fd695d2p-7 "
        "0x1.07883f43ebe91p-7 0x1.1eaa904c92e9bp-8 0x1.04f7a4514336bp-9 "
        "0x1.5ce3fd22a6389p-11 0x1.d2c32c5e4856fp-14"),
    (1, 30): (
        "-0x1.fe75bdca45cc1p-1 -0x1.f7e71e573830cp-1 -0x1.ec2d3b10965c6p-1 "
        "-0x1.db6634e1ce3e5p-1 -0x1.c5be0928c831bp-1 -0x1.ab6d96ce3e331p-1 "
        "-0x1.8cb9fc1ef69bap-1 -0x1.69f3ded7e616bp-1 -0x1.437697a8e0427p-1 "
        "-0x1.19a74208ce551p-1 -0x1.d9e7650dfc6ddp-2 -0x1.7ba2ac7c7ddf2p-2 "
        "-0x1.1977fcb16d340p-2 -0x1.68d26b30870c8p-3 -0x1.35ff3d1e7eafcp-4 "
        "0x1.a35df5cbe3befp-6 0x1.034ecd98fce03p-3 0x1.cf8a1508d2089p-3 "
        "0x1.4b828ad951b32p-2 0x1.abd9e5a0e871bp-2 0x1.03e7033a79698p-1 "
        "0x1.2f36afc005cfep-1 0x1.576a31ffcf19dp-1 0x1.7c17eef9f0dfbp-1 "
        "0x1.9cdf8c684b7c2p-1 0x1.b96aedaefd85ap-1 0x1.d16f1599490bbp-1 "
        "0x1.e4ace9c574108p-1 0x1.f2f1d17118766p-1 0x1.fc180725fb241p-1",
        "0x1.f8e21ee0e4126p-7 0x1.22af5778fffdcp-5 0x1.bffdd9e95cf7cp-5 "
        "0x1.28fe186d6e894p-4 0x1.6a8e535cf9523p-4 0x1.a32c1b49667fbp-4 "
        "0x1.d1a281a2592d0p-4 0x1.f514ad2db1af4p-4 0x1.06820e8ac9024p-3 "
        "0x1.0ca9a7ca7ebecp-3 0x1.0d22584237a91p-3 0x1.083aefabfe0dep-3 "
        "0x1.fcd782e53cf77p-4 0x1.e0a204f402c23p-4 0x1.bd47af586230ap-4 "
        "0x1.9464befa49b1ep-4 0x1.67ae15b4266bcp-4 0x1.38df4185cbc11p-4 "
        "0x1.09a895b01af9dp-4 0x1.b73c21579ae37p-5 0x1.604f814be1601p-5 "
        "0x1.10e88f459ad13p-5 0x1.95b8252f1a8f5p-6 0x1.1ecdbecadd5cep-6 "
        "0x1.7c9499659e927p-7 0x1.d086d2c7f4527p-8 0x1.f873070c2fbd4p-9 "
        "0x1.ca9e51c145ae5p-10 0x1.32454b5194ce2p-11 0x1.997e3e87008f5p-14"),
    (1, 31): (
        "-0x1.fe8dfd738eac3p-1 -0x1.f8665a888b6c6p-1 -0x1.ed6397e47e721p-1 "
        "-0x1.dda038db88d82p-1 -0x1.c943065eeb170p-1 -0x1.b07e305cb587ap-1 "
        "-0x1.938ec60c27f2bp-1 -0x1.72bc1d276cc7dp-1 -0x1.4e572174031c3p-1 "
        "-0x1.26b98d0ea8f8cp-1 -0x1.f88a1640eb9f0p-2 -0x1.9ec48e15a68ffp-2 "
        "-0x1.40ffd4aae1518p-2 -0x1.c0462f5fbc847p-3 -0x1.f47495f71da83p-4 "
        "-0x1.8e220549ed9b5p-6 0x1.2e5b6e2722a21p-4 0x1.5eac322a20fe0p-3 "
        "0x1.1165ad31dc575p-2 0x1.70d3d4fbf9cecp-2 0x1.ccb549d030ca1p-2 "
        "0x1.1213c2abecf06p-1 0x1.3b2977ffab26bp-1 0x1.61367a3a60fcfp-1 "
        "0x1.83dcf9862ca4dp-1 0x1.a2c78818714bap-1 0x1.bda9eca742f35p-1 "
        "0x1.d441dde51c734p-1 0x1.e657a474dafacp-1 0x1.f3be9dbd88fdcp-1 "
        "0x1.fc5579e224a5bp-1",
        "0x1.d9e3a3ef93d94p-7 0x1.11053de64c2b9p-5 0x1.a54559827a54cp-5 "
        "0x1.17c3c719aed30p-4 0x1.564ff40f684c3p-4 0x1.8ce96edb8d842p-4 "
        "0x1.ba7414555f62bp-4 0x1.de1da8eba07b2p-4 0x1.f76396dfcff56p-4 "
        "0x1.030ae84940619p-3 0x1.052b5ccac0fedp-3 0x1.024c0d554cff3p-3 "
        "0x1.f5954277e757ep-4 0x1.de4a9042fe527p-4 0x1.bfeabef4fca21p-4 "
        "0x1.9bd25c337f30dp-4 0x1.7379e8b452b21p-4 0x1.48672b75fd799p-4 "
        "0x1.1c1e48bd80e4cp-4 0x1.e0265eba21e97p-5 0x1.8b37d5937c358p-5 "
        "0x1.3bc8be2054803p-5 0x1.e78f94a482f7cp-6 0x1.6954ac5c9af50p-6 "
        "0x1.fd852299f72f9p-7 0x1.514dea1e98074p-7 0x1.9aee8c43dd310p-8 "
        "0x1.bd9046fe1633cp-9 0x1.949897502b888p-10 0x1.0df51a2cb9422p-11 "
        "0x1.68bdb92cae918p-14"),
    (2, 1): (
        "-0x1.0000000000000p-1",
        "0x1.5555555555555p+1"),
    (2, 2): (
        "-0x1.828b796dadb5dp-1 0x1.69b120c2c3052p-4",
        "0x1.dc41d68f373cap+0 0x1.9cd1a836e6dc1p-1"),
    (2, 3): (
        "-0x1.b5410df735a48p-1 -0x1.395616ea36281p-2 0x1.a3d832d8a170cp-2",
        "0x1.41d0b55e4a013p+0 0x1.2b8329fd10a92p+0 0x1.eab65a7a80020p-3"),
    (2, 4): (
        "-0x1.ce55df392601bp-1 -0x1.0bac3f8da730dp-1 0x1.174d89bd5860ap-5 "
        "0x1.2ef3ac915e12dp-1",
        "0x1.c632ee68e41f2p-1 0x1.25cdb8d417464p+0 0x1.191fd8cce1852p-1 "
        "0x1.5338e3bb0925ep-4"),
    (2, 5): (
        "-0x1.dc97569faf04fp-1 -0x1.4e5b2cbf24d75p-1 -0x1.c3067de65e325p-3 "
        "0x1.131d6d7da9835p-2 0x1.677ac16eebfc8p-1",
        "0x1.4ee897278cd35p-1 0x1.027499f131b42p+0 0x1.6d5d25f3ea1d3p-1 "
        "0x1.0699779847b93p-2 0x1.0d9a88b572007p-5"),
    (2, 6): (
        "-0x1.e57946bc38985p-1 -0x1.79474d54fc024p-1 -0x1.949bf3ffe8c0ep-2 "
        "0x1.281aed8204393p-6 0x1.b9b706e15885ap-2 0x1.8c16c57d9128bp-1",
        "0x1.0028952f1e75fp-1 0x1.b7d06baba79e2p-1 0x1.83635e4085ce7p-1 "
        "0x1.a42a06d41506bp-2 0x1.018fb492bc3f3p-3 0x1.e0016ad3f7eaep-7"),
    (2, 7): (
        "-0x1.eb62506c430cbp-1 -0x1.966fd45cee531p-1 -0x1.09ac2dded2ab3p-1 "
        "-0x1.603f4987b54fcp-3 0x1.99b02886e011dp-3 0x1.1814e7b4023e8p-1 "
        "0x1.a50d3334371bfp-1",
        "0x1.93ac5072ea313p-2 0x1.73809c57f43c7p-1 0x1.77bddd506403ap-1 "
        "0x1.02a5c6f6a5f68p-1 0x1.e20db2d0ee03dp-3 0x1.0b7b9550b1e39p-4 "
        "0x1.d4068f4824692p-8"),
    (2, 8): (
        "-0x1.ef8411a4be152p-1 -0x1.ab1c19bc52dd7p-1 -0x1.37d55b80a4a19p-1 "
        "-0x1.444bf5efefea2p-2 0x1.6ecf63c16ad0bp-7 0x1.5b3e38b395c7bp-2 "
        "0x1.4359a84f91d3ep-1 0x1.b6cb0dda2eb46p-1",
        "0x1.45de855b288ddp-2 0x1.3aa59be52e462p-1 0x1.5d538fe70bd2ep-1 "
        "0x1.185c12e4c9fe2p-1 0x1.4e5a0e5166c68p-2 0x1.1a9296f9425fep-3 "
        "0x1.253e046c320e3p-5 0x1.eb46c8f5db233p-9"),
    (2, 9): (
        "-0x1.f284a45fc0042p-1 -0x1.ba480c901ff93p-1 -0x1.5a5bb696b9e48p-1 "
        "-0x1.b67ebbaaebeeap-2 -0x1.20f536de94f0fp-3 0x1.466d465b6bd59p-3 "
        "0x1.c941086ecb82bp-2 0x1.63c67bc77d4f6p-1 0x1.c3d5f4b12a429p-1",
        "0x1.0c5f00fba6f41p-2 0x1.0c3ec1bc9e2dfp-1 0x1.3e26a3f4ee4e5p-1 "
        "0x1.1bc9f459c5fb5p-1 0x1.8da513269253ap-2 0x1.af9bba7c87df0p-3 "
        "0x1.54fcd5317ec5cp-4 0x1.516e7bfac151ap-6 0x1.11f413be5efcdp-9"),
    (2, 10): (
        "-0x1.f4c4af9da6e9cp-1 -0x1.c5bc7dc1052cep-1 -0x1.74c9763b7b9e6p-1 "
        "-0x1.07e77028b3403p-1 -0x1.0e51e66d30d0cp-2 0x1.f301f6e3224e7p-8 "
        "0x1.1deb945fddb82p-2 0x1.0fb74d56ea192p-1 0x1.7ca190d7902f5p-1 "
        "0x1.cdb1fd95fe230p-1",
        "0x1.c17ae8738c406p-3 0x1.ccfce6afff95fp-2 0x1.1f013440e37e6p-1 "
        "0x1.1448c74493030p-1 0x1.b13957e7c40e1p-2 0x1.15562b3229238p-2 "
        "0x1.19c3db994f103p-3 0x1.a802b9f54d08ap-5 0x1.95264e4e71069p-7 "
        "0x1.415e1e460f243p-10"),
    (2, 11): (
        "-0x1.f67f929b6a694p-1 -0x1.ce97a1f9a6e1ep-1 -0x1.896eb4cd83108p-1 "
        "-0x1.2b58fd81b44c2p-1 -0x1.747e93425679bp-2 -0x1.e9e50b9b59548p-4 "
        "0x1.0f51816dc75b7p-3 0x1.81b0239a0b2dep-2 0x1.31f486e2d137fp-1 "
        "0x1.901153da42f88p-1 0x1.d5532fbdfe1b7p-1",
        "0x1.7dc2d93c2431ap-3 0x1.8f537ade25641p-2 0x1.01f6d6580ec46p-1 "
        "0x1.06e5570591b99p-1 0x1.bf8c1305a7719p-2 0x1.41dd8f0fe76a0p-2 "
        "0x1.827e385b0f7b0p-3 0x1.760887586099dp-4 0x1.0f51beea7398bp-5 "
        "0x1.f8e66f04c756ep-8 0x1.896d8143c33f6p-11"),
    (2, 12): (
        "-0x1.f7db6b3f155f1p-1 -0x1.d593f2b3d0cfep-1 -0x1.99d9231312495p-1 "
        "-0x1.47dfae363521ep-1 -0x1.c824da759ff5ep-2 -0x1.cf4a52df9e95dp-3 "
        "0x1.6969a9e75c712p-8 0x1.e5e222e1448f5p-3 0x1.d372e056e43fcp-2 "
        "0x1.4d89277904528p-1 0x1.9f88be6701c59p-1 0x1.db58f53eaf9c2p-1",
        "0x1.4830935d0e3efp-3 0x1.5c9fb0e768167p-2 0x1.cf89a2df08b69p-2 "
        "0x1.ed92ae97260a9p-2 0x1.bf11d9907456bp-2 0x1.5e54359e90739p-2 "
        "0x1.d9a1284f420ccp-3 0x1.0f1c96f283692p-3 0x1.f9b32802f34d1p-5 "
        "0x1.64a0500d91febp-6 0x1.4508bc930813cp-8 0x1.f38b6c8613eb3p-12"),
    (2, 13): (
        "-0x1.f8f19c2386a14p-1 -0x1.db2f0aac160f6p-1 -0x1.a71ad00d43343p-1 "
        "-0x1.5f212f327e839p-1 -0x1.069f4fc317ca0p-1 -0x1.43710f31cfc41p-2 "
        "-0x1.a924a794c1fadp-4 0x1.d0474c569ce22p-4 0x1.4d3a8a63f8c99p-2 "
        "0x1.0b850f0986da5p-1 0x1.64091efb763bap-1 0x1.ac08195d499eep-1 "
        "0x1.e02ee56371e70p-1",
        "0x1.1d1a0af29674ap-3 0x1.32997ef2a0c0cp-2 0x1.a10da73e96e78p-2 "
        "0x1.cbaa6c1cf7591p-2 0x1.b4f6220baf540p-2 0x1.6d90921af5213p-2 "
        "0x1.0dd92255942b8p-2 0x1.5c3deaf10dcbcp-3 0x1.804fc5b21870ap-4 "
        "0x1.5c3ae6890a5f9p-5 0x1.e059b010e8dd6p-7 0x1.aeac0cc4b6b26p-9 "
        "0x1.474c5ae32c32dp-12"),
    (2, 14): (
        "-0x1.f9d3957c427e0p-1 -0x1.dfbff80044c00p-1 -0x1.b1f50e5fd7df1p-1 "
        "-0x1.72500ba0925aap-1 -0x1.236b9fe899624p-1 -0x1.910514a6c46edp-2 "
        "-0x1.95362d92253c6p-3 0x1.11d3e5ce4cf54p-8 0x1.a653f10ebb4aep-3 "
        "0x1.9994d685ef315p-2 0x1.27b46f1803d5ap-1 0x1.769acd82d1913p-1 "
        "0x1.b64483d2fa888p-1 0x1.e41faf7f858e3p-1",
        "0x1.f3e1f1b03a1dep-4 0x1.0f7ac4d7e0769p-2 0x1.782241945888bp-2 "
        "0x1.aa3225cf859c7p-2 0x1.a4fc7b62fd908p-2 0x1.72b7537211b21p-2 "
        "0x1.24c6230cba6cdp-2 0x1.9d2456e7b8d6cp-3 0x1.0122ccf9678bfp-3 "
        "0x1.13ad29f95861dp-4 0x1.e83a1669fca6fp-6 0x1.4ac4e241dd550p-7 "
        "0x1.24a828aacfb5ap-9 0x1.b8d74149cc85ep-13"),
    (2, 15): (
        "-0x1.fa8da47668832p-1 -0x1.e3849458d582ap-1 -0x1.baf324160d8f1p-1 "
        "-0x1.824e45f441ef3p-1 -0x1.3ba1c54c2c2bep-1 -0x1.d2f6ecbbf10dfp-2 "
        "-0x1.1da6cd645c457p-2 -0x1.7782db2a5aba0p-4 0x1.95b419f427231p-4 "
        "0x1.25337b945598ap-2 0x1.da8477867b097p-2 0x1.3f69646ebdce7p-1 "
        "0x1.8617a21d09192p-1 0x1.bec0a970c5fedp-1 0x1.e76073d2b1953p-1",
        "0x1.b9c4624005079p-4 0x1.e3c7f19500840p-3 0x1.54397703f5d1cp-2 "
        "0x1.8a4c3db26aab5p-2 0x1.91befe3858fb6p-2 0x1.7092219b1001ap-2 "
        "0x1.32fc69df67f75p-2 0x1.d01a2cdf792e3p-3 0x1.3c1a7450c2480p-3 "
        "0x1.7e5b2a14d66f5p-4 0x1.907e685e17e5dp-5 0x1.5c154358a05a2p-6 "
        "0x1.d0d1e6268e64ep-8 0x1.96d21e6c22d2cp-10 0x1.30268a87f84f8p-13"),
    (2, 16): (
        "-0x1.fb28aa49af62ep-1 -0x1.e6a9c78d12fc3p-1 -0x1.c27b5282fcc89p-1 "
        "-0x1.8fc4db9e72977p-1 -0x1.502762786d9c0p-1 -0x1.05ae4300eb29dp-1 "
        "-0x1.657c751ab6b6bp-2 -0x1.6806b8e888ea7p-3 0x1.ad46887e43753p-9 "
        "0x1.75712cd3b91adp-3 0x1.6c32177c5e0b3p-2 0x1.09097d0914d07p-1 "
        "0x1.538362a994897p-1 0x1.93226a8652f21p-1 0x1.c5dc964fb54dep-1 "
        "0x1.ea17ce52d90f2p-1",
        "0x1.89324f5d5ff11p-4 0x1.b188d14f24054p-3 0x1.34b8e71103222p-2 "
        "0x1.6c8413fb2800dp-2 0x1.7cfaa728b11c4p-2 0x1.695ef2c1d81fbp-2 "
        "0x1.3a25aef0aa88bp-2 0x1.f58c316e25463p-3 0x1.6e4cd54c80520p-3 "
        "0x1.e517144d19394p-4 0x1.1ea3bae976690p-4 0x1.26930cd14c382p-5 "
        "0x1.f83e0adc6f684p-7 0x1.4ca3c79713dc9p-8 0x1.2085aea18d438p-10 "
        "0x1.acc5b60301ddbp-14"),
    (2, 17): (
        "-0x1.fbab313e4359fp-1 -0x1.e950cd1cabca4p-1 -0x1.c8d9f8067f55ap-1 "
        "-0x1.9b33df361db1dp-1 -0x1.61ae759195344p-1 -0x1.1df14b2e09a30p-1 "
        "-0x1.a3de733bbdf93p-2 -0x1.ff600c6a43366p-3 -0x1.5041afae61cfap-4 "
        "0x1.6841c745ee153p-4 0x1.05b03ae9c68c1p-2 0x1.a9df11a286625p-2 "
        "0x1.20f1fc662dc10p-1 0x1.64afdb05bdac1p-1 0x1.9e36ab70c23aep-1 "
        "0x1.cbe0169c0da5ep-1 0x1.ec62577a39466p-1",
        "0x1.60320695b5be2p-4 0x1.868ed211ee2f6p-3 0x1.190cdc1559926p-2 "
        "0x1.510d2bd6192f1p-2 0x1.67d06865dad37p-2 0x1.5ed361a9defb6p-2 "
        "0x1.3bd833e811cd9p-2 0x1.077be5382b2c2p-2 0x1.96cd72bf095bbp-3 "
        "0x1.20fe71d45861dp-3 0x1.760092125405cp-4 0x1.b19d1a7cc3c0ep-5 "
        "0x1.b6a27ca5d197bp-6 0x1.72a422052f05cp-7 0x1.e419afbde33dbp-9 "
        "0x1.a0bb41b9b6b22p-11 0x1.340e81f0d4bf6p-14"),
    (2, 18): (
        "-0x1.fc1a2096f324dp-1 -0x1.eb92a8d291f48p-1 -0x1.ce490074be6b1p-1 "
        "-0x1.a4fd9f36d0b6bp-1 -0x1.70c2195c311a7p-1 -0x1.32f0b1f46b656p-1 "
        "-0x1.da4684eac2f96p-2 -0x1.42512e3b8310ep-2 -0x1.43e1c2c248264p-3 "
        "0x1.598860d21e079p-9 0x1.4eae26d023c63p-3 0x1.47b795799963ep-2 "
        "0x1.dfad52f4c6bb3p-2 0x1.35a473e55fb75p-1 0x1.73767f6f3e67bp-1 "
        "0x1.a7b34989b472fp-1 0x1.d101a90068b6ep-1 0x1.ee55993b4110cp-1",
        "0x1.3d45d91ac0eedp-4 0x1.618beebc7a20cp-3 0x1.00aff7969740fp-2 "
        "0x1.37e9580d19836p-2 0x1.52f63d9737817p-2 0x1.52321f50688b0p-2 "
        "0x1.3972e578ae81dp-2 0x1.0f1f4aed58d68p-2 0x1.b5d62a6cea7f2p-3 "
        "0x1.48f7ed5bc6cf6p-3 0x1.c8e9e4335a264p-4 0x1.22124abc666b8p-4 "
        "0x1.4af91d61f524dp-5 0x1.4a6561ffb1c6dp-6 0x1.142e900ea16a9p-7 "
        "0x1.65a8f9096312fp-9 0x1.31eb8447c4fb5p-11 0x1.c24e66de87760p-15"),
    (2, 19): (
        "-0x1.fc79346d60ab1p-1 -0x1.ed8278b24bea8p-1 -0x1.d2f4f7e2982a7p-1 "
        "-0x1.ad6e786c24b85p-1 -0x1.7dcff3f60e13ap-1 -0x1.45371a8a51257p-1 "
        "-0x1.04f782e86e584p-1 -0x1.7d255e8c1ca28p-2 -0x1.cebc0a1f5af8ap-3 "
        "-0x1.306ec8fbb9d96p-4 0x1.43f7fdfb2405dp-4 0x1.d880d69cacd5dp-3 "
        "0x1.8207fbec52f5dp-2 0x1.07690294bea90p-1 0x1.47a8ee43cbc88p-1 "
        "0x1.80425d7af1c27p-1 0x1.afe2083b0fb06p-1 0x1.d56b3d8f5e5e6p-1 "
        "0x1.f0020be3897a1p-1",
        "0x1.1f496b111a34dp-4 0x1.4177d6134079dp-3 0x1.d65ab51b67aedp-3 "
        "0x1.20ff92f45bce6p-2 0x1.3eda28fd0549ep-2 0x1.44638ba1fa49ap-2 "
        "0x1.3414a51a36da9p-2 0x1.12a329deb3c66p-2 0x1.cc40be582add3p-3 "
        "0x1.69ee8991d6805p-3 0x1.09f12afd9ca5cp-3 0x1.6a7616dfca403p-4 "
        "0x1.c4e82b918cb63p-5 0x1.fdd7851de5b1ap-6 0x1.f742d2d261d2dp-7 "
        "0x1.a0d50b036c977p-8 0x1.0bf18ae9b309ep-9 0x1.c7dbf000fcfc7p-12 "
        "0x1.4e3fd08393291p-15"),
    (2, 20): (
        "-0x1.fccb4f5ee0a71p-1 -0x1.ef2f0c522145bp-1 -0x1.d70091178817cp-1 "
        "-0x1.b4c265211f01bp-1 -0x1.892f31992d8e5p-1 -0x1.5534ac74292f0p-1 "
        "-0x1.19ee6cba3f84bp-1 -0x1.b13fb455e9566p-2 -0x1.255a8e9356f50p-2 "
        "-0x1.265162b3f40b5p-3 0x1.1c1da03705ce7p-9 0x1.2f326200ee80cp-3 "
        "0x1.29cb2b51c62ebp-2 0x1.b5b087bfa47dcp-2 0x1.1c27049eb2e0dp-1 "
        "0x1.576d91f8712fbp-1 0x1.8b68a02e9c7a1p-1 0x1.b6fcdfe39d21fp-1 "
        "0x1.d93d83124cb49p-1 0x1.f17473866b99bp-1",
        "0x1.0559cc7b22ba2p-4 0x1.257fb918cfe70p-3 0x1.b0407eda17dd2p-3 "
        "0x1.0c298659490c6p-2 0x1.2bba6c20cbdf1p-2 0x1.360bbafd0ce70p-2 "
        "0x1.2ca01198cbc9dp-2 0x1.12e4eff538749p-2 0x1.db2ce6f8cf6bap-3 "
        "0x1.8402b9b4b534fp-3 0x1.2a8654931463ep-3 0x1.ae9a05392eb4fp-4 "
        "0x1.20cd778f0aca6p-4 0x1.63ff5c5c77a20p-5 0x1.8c29e8487ab62p-6 "
        "0x1.834d9e3d5cd58p-7 0x1.3e444b93776e8p-8 0x1.969cfe5d41d18p-10 "
        "0x1.5842ccf82099ap-12 0x1.f736409e42ef1p-16"),
    (2, 21): (
        "-0x1.fd12b3569bc10p-1 -0x1.f0a401a7efc9bp-1 -0x1.da872367e4909p-1 "
        "-0x1.bb28fdde7062cp-1 -0x1.9325b4740a724p-1 -0x1.63449ce8c572fp-1 "
        "-0x1.2c7445ba7abc1p-1 -0x1.df8b99c8aca15p-2 -0x1.5ccf1b7e593f7p-2 "
        "-0x1.a67cf7f0afa0ap-3 -0x1.161cb3e0d69a9p-4 0x1.2652c4962ace5p-4 "
        "0x1.ae981ca66e28fp-3 0x1.60dccc96207f5p-2 0x1.e3997fd7df7d2p-2 "
        "0x1.2e7b640ee2346p-1 0x1.654c02f4b229ep-1 0x1.952d9845f4e62p-1 "
        "0x1.bd31d6ffc07b6p-1 0x1.dc923d2c9118ep-1 0x1.f2b6d4831627ap-1",
        "0x1.dd8964fbf7724p-5 0x1.0cfa252d803a5p-3 0x1.8e6502ad153d1p-3 "
        "0x1.f276e530b39b6p-3 0x1.19b6061b6a005p-2 0x1.279c4fc786cb6p-2 "
        "0x1.23c40cc0c0199p-2 0x1.10a369ed8959dp-2 0x1.e3c9b6a47050ep-3 "
        "0x1.97b79b59c19afp-3 0x1.45dfc8ba3730ep-3 0x1.ec52e049f7a03p-4 "
        "0x1.5d832931f0904p-4 0x1.ce8232c84238fp-5 0x1.19c2741f045cdp-5 "
        "0x1.3675c00e36481p-6 0x1.2d012d6649857p-7 0x1.eb55c57733a95p-9 "
        "0x1.38293c15c3dcdp-10 0x1.0736187bcdb2ap-12 0x1.7fa8bf2e2125ep-16"),
    (2, 22): (
        "-0x1.fd5129c30d3d6p-1 -0x1.f1ea8fa2f9a90p-1 -0x1.dd9e74aaed82dp-1 "
        "-0x1.c0c86497509cfp-1 -0x1.9bebf5c01e1bfp-1 -0x1.6fb183c1b39b5p-1 "
        "-0x1.3ce3180f9c24cp-1 -0x1.0468cacb28440p-1 -0x1.8e893ab154e8ep-2 "
        "-0x1.0d1bbea3eb29ep-2 -0x1.0db0c96c03871p-3 0x1.db79121c64b06p-10 "
        "0x1.151eb864a7525p-3 0x1.10d2c6f57e72ep-2 0x1.92406200919aap-2 "
        "0x1.064477c606eb9p-1 0x1.3ebeed85b868ep-1 0x1.718d9b8e0cee6p-1 "
        "0x1.9dc88149c8e0ep-1 0x1.c2a5d152cb826p-1 0x1.df7df234de55ep-1 "
        "0x1.f3d1219b08290p-1",
        "0x1.b5f8fc562eef8p-5 0x1.eebbba2abb454p-4 0x1.703596609afb3p-3 "
        "0x1.d0116339507ccp-3 0x1.08d7d22a61f5bp-2 0x1.19623c071b350p-2 "
        "0x1.1a05345aae5cap-2 0x1.0c7d4a5c14d9dp-2 0x1.e7376e1282df5p-3 "
        "0x1.a5c10615f294fp-3 0x1.5c107f7f59418p-3 0x1.113a3c9bb8633p-3 "
        "0x1.9667521c202b6p-4 0x1.1ca54eed81374p-4 0x1.744b7a6ded677p-5 "
        "0x1.c10fc880ba2c6p-6 0x1.ea92b83ac03abp-7 0x1.d83560cd86c85p-8 "
        "0x1.7f1c75bdc37e1p-9 0x1.e480f97ac3d1cp-11 0x1.97118e3fe49acp-13 "
        "0x1.27f1bf69cc14cp-16"),
    (2, 23): (
        "-0x1.fd882086a1233p-1 -0x1.f30a1895b4a9ep-1 -0x1.e05806ce72721p-1 "
        "-0x1.c5bf6c0482171p-1 -0x1.a3aff1fd3f497p-1 -0x1.7ab8bcd3b42a5p-1 "
        "-0x1.4b85fcc3ba128p-1 -0x1.16de1684fa8c7p-1 -0x1.bb3cc09cb481cp-2 "
        "-0x1.416efe2b5fb33p-2 -0x1.84a5cb688c326p-3 -0x1.fff6272740c5ap-5 "
        "0x1.0da63c15a3f74p-4 0x1.8b7b70908179dp-3 0x1.44d9e2d536de2p-2 "
        "0x1.bea7c3bb6f01ap-2 0x1.1893b01d9cdb0p-1 0x1.4d3bbc2a932bap-1 "
        "0x1.7c6eb9b03819fp-1 0x1.a56659a7f7660p-1 0x1.c776a31a45e59p-1 "
        "0x1.e211248e3756bp-1 0x1.f4c9b9d6e461fp-1",
        "0x1.931f1e4a0e1d6p-5 0x1.c875d28512b99p-4 0x1.55358de0343ffp-3 "
        "0x1.b0cc61ac7ba09p-3 0x1.f23bf35363e24p-3 0x1.0b900f0082c95p-2 "
        "0x1.0fc6a47967a68p-2 0x1.06f3718ff7c33p-2 0x1.e678e5b79b2c1p-3 "
        "0x1.aee32f9ccdeffp-3 0x1.6d6af123ef6a5p-3 0x1.2848c3be406f8p-3 "
        "0x1.ca12983614585p-4 0x1.502536c710429p-4 0x1.d16a1c779ab5dp-5 "
        "0x1.2d4b243a8dd55p-5 0x1.68400c295f6bep-6 0x1.869cc83594c8fp-7 "
        "0x1.759ecf7b35307p-8 0x1.2d8c4fc62c4f3p-9 0x1.7bc55d0e28c57p-11 "
        "0x1.3e1264e0757fep-13 0x1.cd7c3f41f748fp-17"),
    (2, 24): (
        "-0x1.fdb8bf1bfb342p-1 -0x1.f408958c8403fp-1 -0x1.e2c20e0fdc4ddp-1 "
        "-0x1.ca273323c98fcp-1 -0x1.aa976122dc116p-1 -0x1.848d0bbe384acp-1 "
        "-0x1.589bcfdf04ef4p-1 -0x1.276e33431117cp-1 -0x1.e3861b93928dfp-2 "
        "-0x1.70d5490b7ecb0p-2 -0x1.f10e05774399bp-3 -0x1.f1b89af5e71fdp-4 "
        "0x1.93b66dabd42eap-10 0x1.fe565b71e8e2bp-4 0x1.f75cfa1e5a121p-3 "
        "0x1.73fcd5dea0680p-2 0x1.e6adc5e36bad4p-2 0x1.29021f2214f69p-1 "
        "0x1.5a2fdf0c2dcc4p-1 0x1.862153f74b003p-1 0x1.ac2c0c3049631p-1 "
        "0x1.cbbc9dd51b836p-1 0x1.e4593a1a66b6bp-1 0x1.f5a5c4e00b0e7p-1",
        "0x1.7443c64e77df0p-5 0x1.a66a99c48b17bp-4 0x1.3cfae71cde7bdp-3 "
        "0x1.945768f947119p-3 0x1.d4fdd1744bad2p-3 0x1.fc8b167505e64p-3 "
        "0x1.05516b9c54c17p-2 0x1.006cbc2d5b0bdp-2 0x1.e26e46eae21a3p-3 "
        "0x1.b3df3017c36dfp-3 0x1.7a63e1d913205p-3 0x1.3b607aecdd7e7p-3 "
        "0x1.f7c056c81124cp-4 0x1.804caad307916p-4 0x1.16c255d337f69p-4 "
        "0x1.7e0fcff4391f0p-5 0x1.ea4e318730f8ap-6 0x1.22e1c389ce878p-6 "
        "0x1.3953ba5ee4140p-7 0x1.2a08a23b0f0f3p-8 0x1.dee0a9cff86adp-10 "
        "0x1.2c71cfa642d28p-11 0x1.f5de65a7f3237p-14 0x1.6b617b1d7b203p-17"),
    (2, 25): (
        "-0x1.fde3f63df3247p-1 -0x1.f4eae6099b4b7p-1 -0x1.e4e828f87efc1p-1 "
        "-0x1.ce145ba3b6514p-1 -0x1.b0c1698f0bda4p-1 -0x1.8d58ad3593910p-1 "
        "-0x1.645963ec4f18cp-1 -0x1.3656e15872f86p-1 -0x1.03f67d1c4e01dp-1 "
        "-0x1.9bda80b5b41acp-2 -0x1.29fab6053d923p-2 -0x1.67cda79321fefp-3 "
        "-0x1.da3975a278e04p-5 0x1.f195f3c06e95bp-5 0x1.6da4d19b33fbep-3 "
        "0x1.2ce656293e128p-2 0x1.9ec6334209b09p-2 0x1.056c6487c1ffbp-1 "
        "0x1.37ccde2eb8668p-1 0x1.65cf81c01a4b0p-1 0x1.8ecf00174f125p-1 "
        "0x1.b2381820ed6f2p-1 0x1.cf8bbbc97ea53p-1 0x1.e661294593915p-1 "
        "0x1.f66977a332278p-1",
        "0x1.58d0ada9810a4p-5 0x1.8801e90d12beep-4 0x1.272b5e4aecf47p-3 "
        "0x1.7a68c75fbd373p-3 0x1.b9d92a56b093dp-3 0x1.e32a5a2ac2dabp-3 "
        "0x1.f5b53544daa82p-3 0x1.f274556dfa46ep-3 0x1.dbd4f9c229cefp-3 "
        "0x1.b5684bb80ae40p-3 0x1.837e7994ee41cp-3 0x1.4ab72ed010b6ep-3 "
        "0x1.0f939ad7c3cecp-3 0x1.ac2ae25c55136p-4 0x1.42e8791589e37p-4 "
        "0x1.cfbd28b8016f3p-5 0x1.3afb05d57f8adp-5 0x1.91152d73d7c6bp-6 "
        "0x1.d8afee00c9e82p-7 0x1.fa34cc705a12ap-8 0x1.df21f6da33086p-9 "
        "0x1.7f5e051c7053ap-10 0x1.df7a97276f287p-12 0x1.8f7a5eee34333p-14 "
        "0x1.20c0c518b59ecp-17"),
    (2, 26): (
        "-0x1.fe0a8ba4d6875p-1 -0x1.f5b50bf7c96dap-1 -0x1.e6d3eb69f8e7fp-1 "
        "-0x1.d197f66e98967p-1 -0x1.b647ef9a55703p-1 -0x1.953ef73a3a7c4p-1 "
        "-0x1.6eeb4af5334ccp-1 -0x1.43ccd2d7a3a31p-1 -0x1.147375a471188p-1 "
        "-0x1.c2fa709d36b4cp-2 -0x1.57285cfdcd701p-2 -0x1.cdb10baacab3cp-3 "
        "-0x1.ce06f6c8c18c4p-4 0x1.5b0eb3568572bp-10 0x1.d8df74ab8209ep-4 "
        "0x1.d31d577abaebep-3 0x1.59de8e6ba461bp-2 0x1.c5b0b40f75308p-2 "
        "0x1.15cea4dcc6ce5p-1 0x1.4528163c05176p-1 0x1.7046ad353eeb6p-1 "
        "0x1.969a8aeb0e3a6p-1 0x1.b7a3d89173e2ap-1 0x1.d2f484645a729p-1 "
        "0x1.e831fbded512cp-1 0x1.f71847f0e40cfp-1",
        "0x1.404a24c671a5fp-5 0x1.6cbd1ff2ab02cp-4 0x1.1379ed75a5ccbp-3 "
        "0x1.62bdd5ab12267p-3 0x1.a0ad48daa1924p-3 0x1.cb1053e15eeaep-3 "
        "0x1.e11022abe3f92p-3 0x1.e3359dec8a0cfp-3 0x1.d34a3b1d08b21p-3 "
        "0x1.b41ee48da1813p-3 0x1.893f7abc66e88p-3 0x1.569b2d226a35dp-3 "
        "0x1.202ab4952d3ccp-3 0x1.d33a8e439c5fdp-4 0x1.6c27f2959d4f0p-4 "
        "0x1.0fe2a32e407d2p-4 0x1.8301591933490p-5 0x1.04ce7645c8a30p-5 "
        "0x1.49d1c824a1717p-6 0x1.826029e575279p-7 0x1.9ba40f197bb16p-8 "
        "0x1.83ebeeba75703p-9 0x1.35432a936b866p-10 0x1.81ac6e8a373dfp-12 "
        "0x1.409dfb6ee1849p-14 0x1.cecc4ea8dde6bp-18"),
    (2, 27): (
        "-0x1.fe2d22edc4f21p-1 -0x1.f66a593e556aap-1 -0x1.e88d48d0f4d75p-1 "
        "-0x1.d4c039a111455p-1 -0x1.bb409a85f44b3p-1 -0x1.9c5da1f3d86e8p-1 "
        "-0x1.787748b5b42acp-1 -0x1.4ffd1cdd66904p-1 -0x1.236ce659ea6c7p-1 "
        "-0x1.e6a23fb1f2c8ep-2 -0x1.807e90b430caap-2 -0x1.15ac252697eb2p-2 "
        "-0x1.4eeddf0a7c0afp-3 -0x1.b9ab3e58b2542p-5 0x1.cddce68ced3d2p-5 "
        "0x1.53fa4fda249adp-3 0x1.183264a912f29p-2 0x1.8304dbce8652cp-2 "
        "0x1.e9289c407aa46p-2 0x1.24b02176e6261p-1 0x1.51406af8f10c5p-1 "
        "0x1.79bab3b781489p-1 0x1.9da13b1fc93e7p-1 0x1.bc848331374a4p-1 "
        "0x1.d604bbfdcf4b1p-1 0x1.e9d333128106ap-1 0x1.f7b513c1b8218p-1",
        "0x1.2a49a122e9182p-5 0x1.54323b2878cffp-4 0x1.01a4af9f9e61ap-3 "
        "0x1.4d1ac606db19ep-3 0x1.89579f21b2077p-3 0x1.b442a0e9eac0bp-3 "
        "0x1.cce874eeafc6dp-3 0x1.d37e832f9c0c1p-3 0x1.c94ed7d9c47f6p-3 "
        "0x1.b08ee484a3c58p-3 0x1.8c25949bc5f10p-3 0x1.5f669b23818e0p-3 "
        "0x1.2dc9ab6c48958p-3 0x1.f548d19bf1f1bp-4 0x1.91da8a4c974ccp-4 "
        "0x1.3618ac8a427e2p-4 0x1.caf60ce33af04p-5 0x1.4415ec2f7d1f0p-5 "
        "0x1.b1c72a0263ba7p-6 0x1.109b0250aa2f6p-6 0x1.3da5d8734074bp-7 "
        "0x1.50dc8a475fee3p-8 0x1.3c35f4ca7e6e0p-9 0x1.f68cfe1e28ac0p-11 "
        "0x1.388ba651dcd97p-12 0x1.034ff68071998p-14 0x1.75cc6f38e5e0ap-18"),
    (2, 28): (
        "-0x1.fe4c446ddccefp-1 -0x1.f70d92c3bdac2p-1 -0x1.ea1ae60d332cbp-1 "
        "-0x1.d7990dc4ed981p-1 -0x1.bfbda0e64e383p-1 -0x1.a2cdccdcc9a0ep-1 "
        "-0x1.811d7ec0cffc8p-1 -0x1.5b0e6d44de62bp-1 -0x1.310efc93b9d26p-1 "
        "-0x1.0398fde0ce97cp-1 -0x1.a6609bf18bb53p-2 -0x1.40c2ad77de0c5p-2 "
        "-0x1.aefddf405032cp-3 -0x1.af1ad91ff5a41p-4 0x1.2d8bc9c9bb252p-10 "
        "0x1.b8873cdafd8bdp-4 0x1.b3b41981cc319p-3 0x1.431dd20958143p-2 "
        "0x1.a8bbcbf844f2dp-2 0x1.04c69e4a2b703p-1 0x1.323ca92b9321ap-1 "
        "0x1.5c3c2bc09dfedp-1 0x1.824b5856cded2p-1 0x1.a3fbd1a36395cp-1 "
        "0x1.c0ebeff4019f8p-1 0x1.d8c7ec5474fe4p-1 0x1.eb4b148da9fafp-1 "
        "0x1.f8423f62b734cp-1",
        "0x1.16798ce7ab292p-5 0x1.3e07f90ea1086p-4 0x1.e2e6372eb4d9ap-4 "
        "0x1.394a3548dbb86p-3 0x1.73b58ac3950dep-3 0x1.9ebe307c08d97p-3 "
        "0x1.b961d6dc8ff56p-3 0x1.c3991e641981ap-3 0x1.be4b32a94545dp-3 "
        "0x1.ab302911673cap-3 0x1.8ca5346356448p-3 0x1.6576e7a851605p-3 "
        "0x1.38a67cf0d43c3p-3 0x1.092f535f3105ep-3 0x1.b3a3312b8fda1p-4 "
        "0x1.59ccbadea99bfp-4 0x1.08808216aa298p-4 0x1.846a14a10893cp-5 "
        "0x1.105b9c41ede65p-5 0x1.6a4938946018fp-6 0x1.c4de24bf9dabdp-7 "
        "0x1.069671f50d24ep-7 0x1.15526f9e9239fp-8 0x1.03688d6ac6385p-9 "
        "0x1.9b1335a4e456dp-11 0x1.fe1dca9dd0dbfp-13 0x1.a67b7d3ba53fbp-15 "
        "0x1.3021be9ef66ddp-18"),
    (2, 29): (
        "-0x1.fe68627aa7114p-1 -0x1.f7a10b94a87bfp-1 -0x1.eb8259316c0dap-1 "
        "-0x1.da2c7c5aca1b5p-1 -0x1.c3ce69f0180b0p-1 -0x1.a8a4cf47b8e07p-1 "
        "-0x1.88f96055aa6abp-1 -0x1.65220d329dd73p-1 -0x1.3d80183e65b7fp-1 "
        "-0x1.127f0df98d4abp-1 -0x1.c9274229f16c1p-2 -0x1.6874db7393c06p-2 "
        "-0x1.03ed4ebb3d6c9p-2 -0x1.3942d2d7d9d7ep-3 -0x1.9d4bd8f9c4d5bp-5 "
        "0x1.aeed18a394ffdp-5 0x1.3dab273ea31b8p-3 0x1.06217d9dade05p-2 "
        "0x1.6aa911e531b69p-2 0x1.cb5b83cdb833bp-2 0x1.139936d7beaedp-1 "
        "0x1.3e9a4ca9651f9p-1 0x1.663c5279edd48p-1 0x1.8a13bf114308ep-1 "
        "0x1.a9bf567f12c4dp-1 0x1.c4e936b3c8a46p-1 0x1.db47cf6a258acp-1 "
        "0x1.ec9ee68d4c187p-1 0x1.f8c1ccddc7527p-1",
        "0x1.04920628ddffdp-5 0x1.29f2ccd557314p-4 0x1.c56913c73c3a2p-4 "
        "0x1.271ca03b6ed48p-3 0x1.5fa56b8581ff8p-3 0x1.8a7a34fa13defp-3 "
        "0x1.a6932c49d92fcp-3 0x1.b3bd43c5a649dp-3 0x1.b293210304424p-3 "
        "0x1.a467ffc46de16p-3 0x1.8b26a11dceeebp-3 0x1.69274fd40944cp-3 "
        "0x1.4100a5a5be6f8p-3 0x1.1557099393884p-3 0x1.d15da1c7e33dap-4 "
        "0x1.7a890dcb52b80p-4 0x1.29dc5b31986c0p-4 0x1.c41d75ae656d3p-5 "
        "0x1.49a46cdedd2cbp-5 0x1.cb691c83f69b8p-6 0x1.2fdb1c73bfb02p-6 "
        "0x1.79f79cdc16fd4p-7 0x1.b46f44f1a2869p-8 0x1.cb365cb5ae436p-9 "
        "0x1.ac314509fd44fp-10 0x1.52613f2235aa7p-11 0x1.a305a2ea774b6p-13 "
        "0x1.5a7b6157ee791p-15 0x1.f24ad9783cf2bp-19"),
    (2, 30): (
        "-0x1.fe81dd8a81f2ep-1 -0x1.f826ba22c1c3bp-1 -0x1.ecc85b8e04dc6p-1 "
        "-0x1.dc83070d78714p-1 -0x1.c7800da24bb96p-1 -0x1.adf4dfc20ff67p-1 "
        "-0x1.9022790342cd8p-1 -0x1.6e54b87889014p-1 -0x1.48e19f09ad66bp-1 "
        "-0x1.2028746e57bcdp-1 -0x1.e921a95d682b5p-2 -0x1.8d1350fcda985p-2 "
        "-0x1.2d101613b6c5dp-2 -0x1.94188002dfdf2p-3 -0x1.940ee699e8e68p-4 "
        "0x1.086f90a22a83cp-10 0x1.9c5266c677f66p-4 0x1.983a45ba94d10p-3 "
        "0x1.2f20fde3ce2dbp-2 0x1.8f2440563ece6p-2 0x1.eb32a39273940p-2 "
        "0x1.2130f939e73f2p-1 0x1.49ea2ec7b5fbcp-1 0x1.6f5d581ddf5b6p-1 "
        "0x1.912b3099a7896p-1 0x1.aefdbd5c891e3p-1 0x1.c8892c7cf1d62p-1 "
        "0x1.dd8ca3d888565p-1 0x1.edd31f071d7f4p-1 0x1.f9356e4bd7162p-1",
        "0x1.e8aca51e07e11p-6 0x1.17b270de7040bp-4 0x1.aa7df3d5605d1p-4 "
        "0x1.1667d080be45fp-3 0x1.4d0746c2bb732p-3 0x1.776a3b20d6edbp-3 "
        "0x1.9489e7b71b424p-3 0x1.a4146c4489ed2p-3 0x1.a66968ab31550p-3 "
        "0x1.9c8b1e79d5ee8p-3 0x1.8805889a1df14p-3 0x1.6acd97852f272p-3 "
        "0x1.471b4ac309a9bp-3 0x1.1f41ae45f3c7bp-3 0x1.eb0f9d43dc536p-4 "
        "0x1.980b053960c37p-4 0x1.490cf2004496fp-4 0x1.00eab3a679221p-4 "
        "0x1.834023f243a32p-5 0x1.18951d5799b2ap-5 0x1.84d907b449ff0p-6 "
        "0x1.ffcddf6857afap-7 0x1.3ce96050b2233p-7 0x1.6c84665e0abb9p-8 "
        "0x1.7e4140888dda4p-9 0x1.636a50bd89135p-10 0x1.18334ff773c63p-11 "
        "0x1.5a50cb2614a83p-13 0x1.1df27c9c68a3dp-15 0x1.9ad2bd6d92bdbp-19"),
    (2, 31): (
        "-0x1.fe990774d7b0bp-1 -0x1.f8a04907e5197p-1 -0x1.edf0f14992439p-1 "
        "-0x1.dea3ecffd7b1ep-1 -0x1.caddbb48b9eafp-1 -0x1.b2cd9b29272cbp-1 "
        "-0x1.96ad0f031a00ep-1 -0x1.76bf50f47c85ep-1 -0x1.5350b19336e64p-1 "
        "-0x1.2cb5e15328106p-1 -0x1.034b2605ef012p-1 -0x1.aee6fc8a6f6a8p-2 "
        "-0x1.532f69a0a78a5p-2 -0x1.e8959840fe14bp-3 -0x1.2637e85ed2463p-3 "
        "-0x1.8459590f7064dp-5 0x1.93dfbdf17a425p-5 0x1.2a1984a5b7143p-3 "
        "0x1.ec773ae138c02p-3 0x1.5520400499fe0p-2 0x1.b0d7da5a42d76p-2 "
        "0x1.04439a2afca81p-1 0x1.2dae5cceed739p-1 0x1.5449376f597a5p-1 "
        "0x1.77b7e5d495cdbp-1 0x1.97a5ba7095f7cp-1 0x1.b3c66a5999058p-1 "
        "0x1.cbd6c7cef9ceep-1 0x1.df9d6fdc110fep-1 0x1.eeeb88fccd93bp-1 "
        "0x1.f99e944a40162p-1",
        "0x1.cb25b84255d72p-6 0x1.070ff4b791830p-4 0x1.91dc17a3d1638p-4 "
        "0x1.07064c21c6c9dp-3 0x1.3bbd1ec328b0cp-3 0x1.657fa40b06ebfp-3 "
        "0x1.834c9045498ecp-3 0x1.94bcd896531c5p-3 0x1.9a02c9f55c658p-3 "
        "0x1.93dfbe3fb3db9p-3 0x1.83916827377dep-3 0x1.6ab84784e6c5dp-3 "
        "0x1.4b394b5ac5372p-3 0x1.271cefd9645d9p-3 0x1.006e409f756d4p-3 "
        "0x1.b23822473b5aep-4 0x1.65bcf32a9d331p-4 0x1.1e4477cb19b3dp-4 "
        "0x1.bbecb2225e73ap-5 0x1.4c78824b637c3p-5 0x1.df1220829de1cp-6 "
        "0x1.4a49282e392a3p-6 0x1.b0c3daba7553fp-7 0x1.0ae6575eb5058p-7 "
        "0x1.31ea7dab5c865p-8 0x1.3fd39b73c9d89p-9 0x1.289983aeb8a69p-10 "
        "0x1.d2a7a995f70bbp-12 0x1.1fe2112dba165p-13 0x1.dac652eba7476p-16 "
        "0x1.54bf2c25b01cdp-19"),
}
