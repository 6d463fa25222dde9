"""Time one fresh-interpreter set-up of fieldkde and print it in seconds.

Set-up is what every CLI invocation pays before its first replicate: the
import of ``fieldkde.cli`` (which pulls in scipy) plus, for each (n, m) of a
workload, the truncation plan, the density oracle and the coefficient box.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON POINTS_JSON
where POINTS_JSON is a list of [n, m, policy, M].
"""

import json
import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    src, config_path, points_json = argv
    sys.path.insert(0, src)
    import fieldkde.cli  # noqa: F401  (the import is the cost being measured)
    from fieldkde.coefficients import coeff_box, model_from_config
    from fieldkde.field import plan_truncation
    from fieldkde.innovations import InnovationModel
    from fieldkde.kde import density_oracle

    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    model = model_from_config(cfg["coefficient"])
    innovations = InnovationModel.from_config(cfg["innovations"])
    gamma = float(cfg["bandwidth"]["gamma"])
    c2 = float(cfg["bandwidth"].get("c2", 1.0))
    eta = float(cfg.get("truncation", {}).get("eta", 0.01))
    for n, m, policy, M in json.loads(points_json):
        plan = plan_truncation(model, m=m, policy=policy, b=c2 * float(n) ** (-gamma), eta=eta, M=M)
        density_oracle(model, innovations, m)
        coeff_box(model, plan.M)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
