(* Repository benchmark entry point: runs one workload and prints two lines
   on stdout, a [perfbench-report/1] object (fingerprint, calibration,
   inputs, sample counts, counter bases) and the result
   [{correct, attempted, failed, metrics: {name: value}}].  run.py
   invokes it, attaches the units BENCHMARK.json declares and checks the
   metric names:

     bench.exe --workload certify-batch --seed 1 --seconds 30 --trace 0 \
       --served PATH --router PATH

   [--trace 0] reports the end-to-end metrics, [--trace 1] the
   per-layer metrics of a separate traced run; a layer the workload
   does not touch is left out, and run.py reports it as 0.  The
   workloads, metrics and layer-to-metric predictions are documented in
   README.md. *)

module Json = Gossip_util.Json

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --served PATH \
   --router PATH"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let served = ref "" and router = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--served", Arg.Set_string served, "PATH gossip_served executable");
      ("--router", Arg.Set_string router, "PATH gossip_router executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let domains = 1 in
  Gossip_util.Parallel.set_default_domains (Some domains);
  let calibration_ms = Machine.calibrate_ms () in
  let seed = !seed and seconds = !seconds in
  let o, workers, peak_rss_mb =
    match !workload with
    | "certify-batch" ->
        let o = Batch.certify_batch ~seed ~seconds ~trace in
        (o, Json.Null, !Batch.peak_rss)
    | "simulate" ->
        let o = Batch.simulate ~seed ~seconds ~trace in
        (o, Json.Null, !Batch.peak_rss)
    | "serve-hot" ->
        let o, workers, rss = Serving.run ~served:!served ~router:!router ~seed ~seconds ~trace in
        (o, workers, Some rss)
    | w ->
        Printf.eprintf "unknown workload %S\n%s\n" w usage;
        exit 2
  in
  let peak_rss_mb =
    match peak_rss_mb with Some mb -> mb | None -> Option.value (Machine.peak_rss_mb None) ~default:Float.nan
  in
  let metrics =
    if trace then
      o.Batch.layers
      @ [
          ("error_frac", float_of_int o.Batch.failed /. float_of_int (max 1 o.Batch.attempted));
          ("machine.calibration_ms", calibration_ms);
        ]
    else o.Batch.e2e @ [ ("peak_rss_mb", peak_rss_mb) ]
  in
  (* a measurement that could not be taken is no number, and no pass *)
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let report =
    Json.Obj
      ([
         ("schema", Json.Str "perfbench-report/1");
         ("workload", Json.Str !workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Float seconds);
         ("trace", Json.Bool trace);
         ("machine", Machine.fingerprint ~domains ~workers);
         ("calibration_ms", Json.Float calibration_ms);
         ("attempted", Json.Int o.Batch.attempted);
         ("failed", Json.Int o.Batch.failed);
       ]
      @ o.Batch.report)
  in
  print_endline (Json.to_string report);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.Batch.failed = 0 && finite));
            ("attempted", Json.Int o.Batch.attempted);
            ("failed", Json.Int o.Batch.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v) -> (name, if Float.is_finite v then Json.Float v else Json.Null))
                   metrics) );
          ]))
