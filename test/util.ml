(* Shared helpers for the test suites. *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec find i = i + n <= h && (String.sub haystack i n = needle || find (i + 1)) in
  find 0

(* The scenario factory's federation at [params], rendered to files and
   loaded the way [sit_serve] loads them; the files are removed again. *)
let scenario_session (params : Workload.Scenario.params) =
  let scn = Workload.Scenario.generate params in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sit_scenario_%d_%d" (Unix.getpid ()) params.Workload.Scenario.seed)
  in
  let files = Workload.Scenario.write_files ~dir scn in
  let loaded =
    Server.load_session
      {
        Server.schema_files = [ files.Workload.Scenario.ddl ];
        script = Some files.Workload.Scenario.script;
        data = Some files.Workload.Scenario.data;
        journal = None;
        name = None;
      }
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match loaded with Ok session -> (scn, session) | Error e -> failwith e

(* What sit_scenario renders by default, the federation-read inputs. *)
let default_scenario seed =
  {
    Workload.Scenario.seed;
    schemas = 8;
    concepts = 16;
    population = 200;
    views = 6;
    storm = 36;
    evolve = 9;
    rounds = 2;
  }
