(* Machine fingerprint and CPU calibration, stamped on every report.

   The calibration is a fixed amount of work that touches no library
   code: integer mixing in registers, float sums streamed over a 4 MiB
   array, and repeated products with a 48x48 matrix that stays in the L1
   cache, like the norm kernel's blocks.  Neighbours contending for the
   core's float units, its caches or memory show in it as they do in the
   workloads.  When it moves between two reports, the machine moved, not
   the program. *)

module Json = Gossip_util.Json

let stream = lazy (Array.init (1 lsl 19) (fun i -> float_of_int (i land 7)))

let block = Array.init 48 (fun i -> Array.init 48 (fun j -> float_of_int ((7 * i) + (3 * j)) /. 512.0))

let calibration_work () =
  let x = ref 0x2545F491 in
  for _ = 1 to 10_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let a = Lazy.force stream in
  let acc = ref 0.0 in
  for _ = 1 to 20 do
    for i = 0 to Array.length a - 1 do
      acc := !acc +. (a.(i) *. a.(i))
    done
  done;
  let v = Array.make 48 1.0 and w = Array.make 48 0.0 in
  for _ = 1 to 3000 do
    for i = 0 to 47 do
      let row = block.(i) and s = ref 0.0 in
      for j = 0 to 47 do
        s := !s +. (row.(j) *. v.(j))
      done;
      w.(i) <- !s
    done;
    let norm = sqrt (Array.fold_left (fun t y -> t +. (y *. y)) 0.0 w) in
    Array.iteri (fun i y -> v.(i) <- y /. norm) w
  done;
  Sys.opaque_identity (!x, !acc, v.(0))

(* Median of three timings of [calibration_work], in milliseconds. *)
let calibrate_ms () =
  ignore (Lazy.force stream);
  Sample.median
    (Array.init 3 (fun _ ->
         let _, s = Sample.time calibration_work in
         1000.0 *. s))

let nproc () = Domain.recommended_domain_count ()

let fingerprint ~domains ~workers =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("os", Json.Str Sys.os_type);
      ("word_size", Json.Int Sys.word_size);
      ("parallel_domains", Json.Int domains);
      ("daemon_workers", workers);
      ("version", Json.Str Core.Version.string);
    ]

(* Peak resident set of a process from /proc ([VmHWM]), in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.0))
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r
