"""Workload configurations: Table 5 layers, MobileNet-V2 layers, suite."""

from repro.frontends.workloads import (
    MOBILENET_V2_LAYERS,
    OPERATOR_SUITE,
    RESNET18_CONV_LAYERS,
    operator_suite,
)


class TestResnet18Layers:
    def test_twelve_layers(self):
        assert len(RESNET18_CONV_LAYERS) == 12
        assert [l.name for l in RESNET18_CONV_LAYERS] == [f"C{i}" for i in range(12)]

    def test_table5_parameters(self):
        c0 = RESNET18_CONV_LAYERS[0]
        assert (c0.c, c0.k, c0.h, c0.w, c0.r, c0.stride) == (3, 64, 112, 112, 7, 2)
        c11 = RESNET18_CONV_LAYERS[11]
        assert (c11.c, c11.k, c11.h, c11.stride) == (512, 512, 7, 1)

    def test_computation_builds(self):
        comp = RESNET18_CONV_LAYERS[1].computation()
        extents = {iv.name: iv.extent for iv in comp.iter_vars}
        assert extents["n"] == 16
        assert extents["k"] == 64
        assert extents["p"] == 56

    def test_batch_override(self):
        comp = RESNET18_CONV_LAYERS[1].computation(batch=1)
        extents = {iv.name: iv.extent for iv in comp.iter_vars}
        assert extents["n"] == 1

    def test_strided_layer_output_halves(self):
        comp = RESNET18_CONV_LAYERS[3].computation()  # C3: 28x28 stride 2
        extents = {iv.name: iv.extent for iv in comp.iter_vars}
        assert extents["p"] == 14


class TestMobilenetLayers:
    def test_seven_layers(self):
        assert len(MOBILENET_V2_LAYERS) == 7

    def test_depthwise_builds(self):
        comp = MOBILENET_V2_LAYERS[0].depthwise()
        assert comp.name == "depthwise_conv2d"

    def test_pointwise_builds(self):
        comp = MOBILENET_V2_LAYERS[2].pointwise()
        extents = {iv.name: iv.extent for iv in comp.iter_vars}
        assert extents["r"] == 1 and extents["s"] == 1


class TestSuite:
    def test_covers_all_fifteen_classes(self):
        assert len(OPERATOR_SUITE) == 15

    def test_iteration_yields_computations(self):
        items = list(operator_suite())
        assert len(items) >= 15
        for code, params, comp in items:
            assert comp.total_iterations() > 0

    def test_batch_override_applies(self):
        base = {code for code, p, c in operator_suite()}
        for code, params, comp in operator_suite(batch=4):
            if "n" in params:
                assert params["n"] == 4
            if "b" in params:
                assert params["b"] == 4
        assert base == set(OPERATOR_SUITE)
